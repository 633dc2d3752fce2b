// Package nodemanager implements the NODE MANAGER (NM) of the paper's
// platform (§V-B): one per machine, it polls `docker stats` for every hosted
// container, aggregates usage between Monitor queries, and executes the
// vertical scaling commands (`docker update`) the Monitor sends down. NMs
// deliberately make no scaling decisions of their own — the paper explains
// that locally-optimal NM decisions oscillate against the Monitor's global
// ones (§V-B).
package nodemanager

import (
	"fmt"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/resources"
)

// ContainerStats is the per-container usage aggregate an NM reports to the
// Monitor.
type ContainerStats struct {
	ID      string
	Service string
	// Requested is the container's current allocation.
	Requested resources.Vector
	// Usage is the mean measured usage since the previous report.
	Usage resources.Vector
	// Routable reports whether the container is Running.
	Routable bool
	// Inflight is the number of requests resident in the container (queued
	// plus executing) at report time — the queue-depth signal.
	Inflight int
}

// Report is one NM's answer to a Monitor stats query.
type Report struct {
	NodeID     string
	Capacity   resources.Vector
	Available  resources.Vector
	Containers []ContainerStats
}

// Manager is the node-local agent.
type Manager struct {
	node *cluster.Node

	// windows accumulates each hosted container's usage samples between
	// reports, indexed like node.Containers() as of node version windowsVer.
	// A version change re-keys them by container ID (see sync).
	windows    []window
	windowsVer uint64

	// containers is the reusable backing array for Report's stats slice —
	// cleared, not reallocated, each report, so steady-state polls allocate
	// nothing. Returned Reports alias it and are valid until the next Report
	// call; callers that cache must copy (see monitor.cachedReport).
	containers []ContainerStats

	missedQueries uint64
}

// window is one container's usage sum and sample count since the last
// report.
type window struct {
	id  string
	sum resources.Vector
	n   int
}

// New attaches a manager to its node. Its windows start empty, whatever
// another manager of the same node has sampled.
func New(node *cluster.Node) *Manager {
	return &Manager{node: node}
}

// NodeID returns the managed node's ID.
func (m *Manager) NodeID() string { return m.node.ID() }

// sync returns the windows aligned with node.Containers(). When containers
// were placed or removed since the last call, each surviving container keeps
// its window (matched by ID) and new ones start empty; otherwise this is a
// version check. A node appends placed containers and keeps the survivors'
// order on removal, so survivors are matched in one forward scan.
func (m *Manager) sync() []window {
	v := m.node.Version()
	if v == m.windowsVer {
		return m.windows
	}
	cs := m.node.Containers()
	next := make([]window, len(cs))
	j := 0
	for k, c := range cs {
		next[k].id = c.ID
		for i := j; i < len(m.windows); i++ {
			if m.windows[i].id == c.ID {
				next[k], j = m.windows[i], i+1
				break
			}
		}
	}
	m.windows, m.windowsVer = next, v
	return next
}

// Sample records each hosted container's latest usage (what one `docker
// stats` poll would observe). Call once per physics tick.
func (m *Manager) Sample() {
	ws := m.sync()
	for i, c := range m.node.Containers() {
		if c.State != container.StateRunning {
			continue
		}
		u := c.LastUsage()
		w := &ws[i]
		w.sum = w.sum.Add(resources.Vector{CPU: u.CPU, MemMB: u.MemMB, NetMbps: u.NetMbps})
		w.n++
	}
}

// Report aggregates the samples since the previous report and resets the
// window. Containers that produced no samples yet (e.g. still starting)
// report zero usage.
//
// The returned Report's Containers slice is reused across calls: it is valid
// until the next Report on this manager, and callers that keep it longer must
// copy it.
func (m *Manager) Report() Report {
	rep := Report{
		NodeID:    m.node.ID(),
		Capacity:  m.node.Capacity(),
		Available: m.node.Available(),
	}
	ws := m.sync()
	m.containers = m.containers[:0]
	for i, c := range m.node.Containers() {
		var usage resources.Vector
		if w := &ws[i]; w.n > 0 {
			usage = w.sum.Scale(1 / float64(w.n))
			w.sum, w.n = resources.Vector{}, 0
		}
		m.containers = append(m.containers, ContainerStats{
			ID:        c.ID,
			Service:   c.Service,
			Requested: c.Alloc,
			Usage:     usage,
			Routable:  c.Routable(),
			Inflight:  c.Inflight(),
		})
	}
	rep.Containers = m.containers
	return rep
}

// NoteMissedQuery records a stats query whose answer never reached the
// Monitor. The sampling window is left intact, so the usage accumulated
// during the outage lands in the next successful Report — nothing is lost,
// only delayed.
func (m *Manager) NoteMissedQuery() { m.missedQueries++ }

// MissedQueries returns how many stats queries were dropped in transit.
func (m *Manager) MissedQueries() uint64 { return m.missedQueries }

// ApplyVertical executes a `docker update` on a hosted container.
func (m *Manager) ApplyVertical(containerID string, alloc resources.Vector) error {
	c := m.node.Container(containerID)
	if c == nil {
		return fmt.Errorf("nodemanager %s: unknown container %q", m.node.ID(), containerID)
	}
	return c.Update(alloc)
}

// Liveness reports the number of live (non-removed) containers; the paper's
// NMs check microservice liveness for the Monitor.
func (m *Manager) Liveness() int {
	n := 0
	for _, c := range m.node.Containers() {
		if c.State != container.StateRemoved {
			n++
		}
	}
	return n
}
