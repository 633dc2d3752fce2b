// Package cluster models the physical machines of the paper's testbed: a set
// of (possibly heterogeneous) nodes, each with a CPU/memory/NIC capacity,
// hosting Docker containers. The package owns the per-tick physics —
// weighted processor sharing with co-location contention (§III-A), the swap
// cliff (§III-B), and NIC tx-queue contention (§III-C) — so that every
// scaling algorithm is judged against the same physical effects the paper
// measured.
package cluster

import (
	"fmt"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/netem"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// NodeConfig describes one machine.
type NodeConfig struct {
	// ID uniquely identifies the node.
	ID string
	// Capacity is the machine's total resources. The paper's nodes have
	// 4 cores, 8192 MiB and a shared NIC.
	Capacity resources.Vector
	// Net is the NIC model (line rate + tx-queue contention).
	Net netem.Model
	// CPUContention is the co-location contention coefficient, calibrated
	// for a four-core machine: with k CPU-active containers on 4 cores,
	// delivered CPU is derated by 1/(1+c·(k−1)). Larger machines interfere
	// less per extra container, so the effective coefficient scales by
	// 4/cores. The paper measured a 17 % response-time increase with one
	// co-located contender on its 4-core nodes, i.e. c ≈ 0.17 (we use 0.13
	// because queueing amplifies the per-request slowdown into the measured
	// response-time increase).
	CPUContention float64
	// SwapPenalty divides a swapping container's CPU progress (and observed
	// CPU usage, since the process stalls in iowait). Must be >= 1.
	SwapPenalty float64
}

// DefaultNodeConfig returns a node shaped like the paper's cluster machines.
func DefaultNodeConfig(id string) NodeConfig {
	return NodeConfig{
		ID:            id,
		Capacity:      resources.Vector{CPU: 4, MemMB: 8192, NetMbps: 1000},
		Net:           netem.Model{CapacityMbps: 1000, TxQueueContention: 0.15},
		CPUContention: 0.13,
		SwapPenalty:   8,
	}
}

// Node is one machine. All methods must be called from the simulation
// goroutine.
type Node struct {
	cfg NodeConfig

	// containers preserves insertion order for deterministic iteration;
	// byID provides O(1) lookup.
	containers []*container.Container
	byID       map[string]*container.Container

	// version counts container set changes (adds and removals), letting the
	// Monitor skip rebuilding per-node snapshot state when nothing moved.
	version uint64

	// Per-tick scratch buffers reused across Advance calls so steady-state
	// physics ticks allocate nothing.
	flowsBuf []netem.Flow
	ratesBuf []float64
	claimBuf []cpuClaimant
	netAlloc netem.Allocator
	tickBuf  TickResult
}

// NewNode builds a node from cfg.
func NewNode(cfg NodeConfig) (*Node, error) {
	switch {
	case cfg.ID == "":
		return nil, fmt.Errorf("cluster: node needs an ID")
	case cfg.Capacity.CPU <= 0 || cfg.Capacity.MemMB <= 0:
		return nil, fmt.Errorf("cluster: node %q needs positive CPU and memory capacity", cfg.ID)
	case cfg.SwapPenalty < 1:
		return nil, fmt.Errorf("cluster: node %q needs SwapPenalty >= 1, got %v", cfg.ID, cfg.SwapPenalty)
	case cfg.CPUContention < 0:
		return nil, fmt.Errorf("cluster: node %q has negative CPUContention", cfg.ID)
	}
	return &Node{cfg: cfg, byID: make(map[string]*container.Container)}, nil
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.cfg.ID }

// Capacity returns the node's total resources.
func (n *Node) Capacity() resources.Vector { return n.cfg.Capacity }

// Config returns the node configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// AddContainer places c on this node. The container ID must be unique.
func (n *Node) AddContainer(c *container.Container) error {
	if _, dup := n.byID[c.ID]; dup {
		return fmt.Errorf("cluster: node %s already hosts container %s", n.cfg.ID, c.ID)
	}
	c.NodeID = n.cfg.ID
	n.containers = append(n.containers, c)
	n.byID[c.ID] = c
	n.version++
	return nil
}

// Version counts container placements and removals on this node. A snapshot
// layer can cache per-node derived state and rebuild it only when the version
// moved.
func (n *Node) Version() uint64 { return n.version }

// RemoveContainer removes the container and returns its killed in-flight
// requests (removal failures). It is a no-op returning nil for unknown IDs.
func (n *Node) RemoveContainer(id string) []*workload.Request {
	c, ok := n.byID[id]
	if !ok {
		return nil
	}
	delete(n.byID, id)
	for i, cc := range n.containers {
		if cc.ID == id {
			n.containers = append(n.containers[:i], n.containers[i+1:]...)
			break
		}
	}
	n.version++
	return c.Remove()
}

// Container returns the hosted container with the given ID, or nil.
func (n *Node) Container(id string) *container.Container { return n.byID[id] }

// Containers returns the hosted containers in deterministic (insertion)
// order. Callers must not mutate the returned slice.
func (n *Node) Containers() []*container.Container { return n.containers }

// Allocated returns the sum of all hosted containers' allocations.
func (n *Node) Allocated() resources.Vector {
	var v resources.Vector
	for _, c := range n.containers {
		v = v.Add(c.Alloc)
	}
	return v
}

// Available returns capacity minus allocations, floored at zero. This is
// what the node "advertises" to the Monitor for placement decisions.
func (n *Node) Available() resources.Vector {
	return n.cfg.Capacity.Sub(n.Allocated()).ClampNonNegative()
}

// HostsService reports whether any non-removed replica of the service runs
// (or is starting) on this node. HyScale's horizontal step only targets
// nodes that do NOT already host the service.
func (n *Node) HostsService(service string) bool {
	for _, c := range n.containers {
		if c.Service == service && c.State != container.StateRemoved {
			return true
		}
	}
	return false
}

// TickResult aggregates what happened on a node (or across the cluster)
// during one physics tick.
type TickResult = container.AdvanceResult

// Advance runs dt of physics on this node:
//
//  1. Starting containers that reached their ready time become Running.
//  2. CPU: weighted max-min fair processor sharing across CPU-active
//     containers (weight = CPU request, i.e. Docker cpu-shares), with the
//     node's deliverable CPU derated by co-location contention and each
//     swapping container's progress derated by the swap penalty.
//  3. Network: max-min fair NIC allocation with tc caps and tx-queue
//     contention (see netem).
//  4. Each container advances its in-flight requests.
//
// The returned TickResult's slices are scratch reused by the next Advance on
// this node; consume them before ticking again.
func (n *Node) Advance(now time.Duration, dt time.Duration) TickResult {
	n.tickBuf.Reset()
	n.advance(now, dt, &n.tickBuf)
	return n.tickBuf
}

// advance runs Advance's physics, appending the tick's completions and
// timeouts to res.
func (n *Node) advance(now time.Duration, dt time.Duration, res *TickResult) {
	if dt <= 0 || len(n.containers) == 0 {
		return
	}
	for _, c := range n.containers {
		c.MaybeStart(now)
	}

	cpuRates := n.allocateCPU()

	n.flowsBuf = n.flowsBuf[:0]
	for _, c := range n.containers {
		f := netem.Flow{}
		if c.State == container.StateRunning {
			f = netem.Flow{CapMbps: c.Alloc.NetMbps, Count: c.NetFlowCount()}
		}
		n.flowsBuf = append(n.flowsBuf, f)
	}
	netShares := n.netAlloc.Allocate(n.cfg.Net, n.flowsBuf)

	for i, c := range n.containers {
		if c.State != container.StateRunning {
			// Starting containers process nothing; keep a zero usage sample.
			c.SetLastUsage(container.Usage{MemMB: 0})
			continue
		}
		c.Advance(now, dt, cpuRates[i], netShares[i].RateMbps, res)
	}
}

// cpuClaimant is one running container's demand in the weighted
// water-filling round of allocateCPU.
type cpuClaimant struct {
	idx    int
	weight float64
	demand float64
	rate   float64
	frozen bool
}

// allocateCPU computes the CPU rate delivered to each container this tick.
// The returned slice is indexed like n.containers and reused across ticks.
func (n *Node) allocateCPU() []float64 {
	if cap(n.ratesBuf) < len(n.containers) {
		n.ratesBuf = make([]float64, len(n.containers))
	}
	rates := n.ratesBuf[:len(n.containers)]
	clear(rates)

	claimants := n.claimBuf[:0]
	active := 0
	for i, c := range n.containers {
		if c.State != container.StateRunning {
			continue
		}
		d := c.CPUDemand()
		if d <= 0 {
			continue
		}
		// A swapping container stalls in iowait: it can only make progress —
		// and only occupies the CPU — at a fraction of its demand. The
		// slowdown deepens with how far past the limit the working set is
		// (more of it lives on disk).
		if c.Swapping() {
			d /= n.cfg.SwapPenalty * c.SwapDepth()
		}
		w := c.Alloc.CPU
		if w <= 0 {
			// Docker gives every container a minimum share; model a tiny
			// weight so zero-request containers still make progress.
			w = 0.01
		}
		claimants = append(claimants, cpuClaimant{idx: i, weight: w, demand: d})
		active++
	}
	n.claimBuf = claimants
	if active == 0 {
		return rates
	}

	// Co-location contention derates the whole node's deliverable CPU. The
	// coefficient is calibrated per 4 cores: bigger machines suffer less
	// interference per extra container.
	contention := n.cfg.CPUContention * 4 / n.cfg.Capacity.CPU
	capacity := n.cfg.Capacity.CPU / (1 + contention*float64(active-1))

	// Weighted water-filling: distribute capacity proportionally to weights;
	// freeze claimants whose demand binds and redistribute the slack
	// (work-conserving, like Docker cpu-shares).
	remaining := capacity
	unfrozen := active
	for unfrozen > 0 && remaining > 1e-12 {
		var weightSum float64
		for _, cl := range claimants {
			if !cl.frozen {
				weightSum += cl.weight
			}
		}
		if weightSum <= 0 {
			break
		}
		progressed := false
		for i := range claimants {
			cl := &claimants[i]
			if cl.frozen {
				continue
			}
			grant := remaining * cl.weight / weightSum
			if cl.rate+grant >= cl.demand {
				extra := cl.demand - cl.rate
				if extra < 0 {
					extra = 0
				}
				cl.rate = cl.demand
				remaining -= extra
				cl.frozen = true
				unfrozen--
				progressed = true
			}
		}
		if !progressed {
			// No demand binds: hand out the final proportional split.
			for i := range claimants {
				cl := &claimants[i]
				if !cl.frozen {
					cl.rate += remaining * cl.weight / weightSum
				}
			}
			remaining = 0
		}
	}

	for _, cl := range claimants {
		rates[cl.idx] = cl.rate
	}
	return rates
}
