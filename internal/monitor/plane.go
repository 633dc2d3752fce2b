// The zoned control plane: the datacenter-scale successor to the single
// central arbiter. Nodes are partitioned into zones, each owned by a zone
// arbiter — a full Monitor running over a zone-local cluster view — and a
// thin global allocator (the Plane) sits above them handling service→zone
// assignment, cross-zone capacity leasing when a zone runs dry, and the
// merging of per-zone ledgers into the cluster-wide view experiments, obs
// and httpapi consume.
//
// Each arbiter polls only its own nodes and hands the scaling algorithm a
// zone-local snapshot, so the per-poll placement scan drops from O(services
// × nodes) to O(services × nodes / zones) — the structural speedup ROADMAP
// item 1 asked for after PR 7 exhausted micro-optimization.
//
// Zones stay disjoint: a node belongs to exactly one arbiter at a time, so
// no machine is double-polled and every replica has exactly one owner.
// Cross-zone placement is therefore node leasing, not remote placement —
// when a zone is out of capacity the allocator moves an idle (container-free,
// detector-healthy) machine from the richest donor zone into the starved
// one. Determinism is preserved: zones are polled in index order and every
// scan is over deterministic slices.
package monitor

import (
	"fmt"
	"strconv"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// ControlPlane is the surface the platform drives: both the single Monitor
// and the zoned Plane implement it, so every consumer of the cluster view —
// runner, httpapi, obs sampling, the facade — is agnostic to sharding.
type ControlPlane interface {
	AddService(spec workload.ServiceSpec, targetUtil float64) error
	DeployInitial(service string, now time.Duration) error
	StartReplica(service, nodeID string, alloc resources.Vector, now time.Duration) error

	Sample()
	Poll(now time.Duration)
	Apply(plan core.Plan, now time.Duration)
	MaybeCheckpoint(now time.Duration)
	Restart(now time.Duration)

	// ServiceID returns the dense ID AddService interned for a service name:
	// services are numbered 0, 1, 2, … in registration order. The ID-keyed
	// methods below index slices by it; the name-keyed ones wrap them.
	ServiceID(name string) (workload.ServiceID, bool)
	Replicas(service string) []*container.Container
	AppendReplicas(buf []*container.Container, service string) []*container.Container
	AppendReplicasID(buf []*container.Container, id workload.ServiceID) []*container.Container
	ReplicaCount(service string) int
	ReplicaCountID(id workload.ServiceID) int

	Counts() ActionCounts
	Recovery() RecoveryCounts
	NodeConditions() []NodeCondition
	PendingRetries() int
	Algorithm() core.Algorithm

	DetachNode(nodeID string)
	AttachNode(n *cluster.Node)
}

var (
	_ ControlPlane = (*Monitor)(nil)
	_ ControlPlane = (*Plane)(nil)
)

// PlaneConfig parameterises the zoned control plane.
type PlaneConfig struct {
	// Zones is the number of zone arbiters; clamped to the node count.
	Zones int
	// LeaseHeadroomCPU triggers proactive leasing: when a zone's best
	// single-node available CPU falls below this many cores before a poll,
	// the allocator moves one idle node in so the zone's algorithm still has
	// somewhere to scale out. Zero means the 1-core default.
	LeaseHeadroomCPU float64
	// Evacuate enables the disaster-recovery path: when every node of a zone
	// is ruled dead by its arbiter's failure detector, the allocator re-homes
	// the zone's services into surviving zones and lets the reconciler
	// re-place their lost replicas there. Requires self-healing (the detector
	// is the trigger); off, a dead zone's services stay down until it heals.
	Evacuate bool
	// SpilloverZones bounds how many zones one evacuated service may span
	// when no single surviving zone has capacity for all its replicas:
	// its home plus up to SpilloverZones-1 spill shards. Values ≤ 1 disable
	// spillover (the whole service lands in one zone, fit or not).
	SpilloverZones int
	// ReadoptAfter is the anti-flap cooldown before an evacuated service
	// migrates home: the healed zone must stay fully healthy this long
	// first. Zero means the 30 s default.
	ReadoptAfter time.Duration
}

func (c PlaneConfig) headroom() resources.Vector {
	h := c.LeaseHeadroomCPU
	if h <= 0 {
		h = 1
	}
	return resources.Vector{CPU: h}
}

func (c PlaneConfig) readoptAfter() time.Duration {
	if c.ReadoptAfter > 0 {
		return c.ReadoptAfter
	}
	return 30 * time.Second
}

// CrossZoneCounts tallies the global allocator's activity.
type CrossZoneCounts struct {
	// NodeLeases counts idle machines moved between zones.
	NodeLeases uint64 `json:"nodeLeases"`
	// LeaseFailures counts lease attempts that found no movable machine.
	LeaseFailures uint64 `json:"leaseFailures"`
}

// ZoneSummary is one zone's merged view, for per-zone metrics and the
// hyscale-sim summary lines.
type ZoneSummary struct {
	Zone           int            `json:"zone"`
	Nodes          int            `json:"nodes"`
	Services       int            `json:"services"`
	Replicas       int            `json:"replicas"`
	Counts         ActionCounts   `json:"counts"`
	Recovery       RecoveryCounts `json:"recovery"`
	PendingRetries int            `json:"pendingRetries"`
	// LeaseFailures counts lease attempts this zone initiated that found no
	// movable machine anywhere (the per-zone attribution of the global
	// CrossZoneCounts.LeaseFailures).
	LeaseFailures uint64 `json:"leaseFailures"`
	// Evacuated marks a zone currently ruled down by the evacuation state
	// machine (its services re-homed into surviving zones).
	Evacuated bool `json:"evacuated,omitempty"`
}

// zoneArbiter couples one zone's cluster view with the Monitor that owns it.
type zoneArbiter struct {
	idx      int
	name     string // decimal zone index, the target key of zone fault windows
	view     *cluster.Cluster
	mon      *Monitor
	services []string
	// guests lists services whose home is another zone but which keep a
	// bounded spillover shard of replicas here (see evac.go).
	guests []string

	// leaseFailures counts failed lease attempts initiated on this zone's
	// behalf.
	leaseFailures uint64

	// down / healthyAt drive the evacuation ⇄ re-adoption state machine:
	// down is set when the zone is evacuated, healthyAt records when the
	// zone was last observed transitioning to fully healthy (-1 = not
	// currently healthy).
	down      bool
	healthyAt time.Duration
}

// Plane is the two-level control plane: zone arbiters below, the global
// allocator above. Single-goroutine like everything else in the simulator.
type Plane struct {
	global *cluster.Cluster
	cfg    PlaneConfig
	algo   core.Algorithm

	zones      []*zoneArbiter
	zoneOfNode map[string]int

	// ids interns service names into dense IDs, shared with every zone
	// arbiter so a service keeps one ID wherever it lives. homeOf and spills
	// are indexed by it: homeOf is the zone owning the service, spills lists
	// the zones holding its spillover shards beyond that (current) home.
	ids    serviceIDs
	homeOf []int
	spills [][]int

	// evacHome remembers an evacuated service's original zone, so it
	// migrates home when that zone heals.
	evacHome map[string]int

	cross CrossZoneCounts
	evac  EvacCounts
}

// NewPlane partitions the cluster's nodes into contiguous zones and builds
// one arbiter per zone. The algorithm instance is shared by all arbiters:
// every algorithm in internal/core keys its state per service name, services
// are assigned to exactly one zone, and zones decide sequentially, so no
// state crosses zone boundaries.
func NewPlane(cl *cluster.Cluster, algo core.Algorithm, cfg PlaneConfig) (*Plane, error) {
	nodes := cl.Nodes()
	if cfg.Zones < 2 {
		return nil, fmt.Errorf("monitor: plane needs at least 2 zones, got %d (use Monitor for 1)", cfg.Zones)
	}
	k := cfg.Zones
	if k > len(nodes) {
		k = len(nodes)
	}
	p := &Plane{
		global:     cl,
		cfg:        cfg,
		algo:       algo,
		zoneOfNode: make(map[string]int, len(nodes)),
		ids:        make(serviceIDs),
		evacHome:   make(map[string]int),
	}
	for z := 0; z < k; z++ {
		view, err := cluster.New()
		if err != nil {
			return nil, err
		}
		lo, hi := z*len(nodes)/k, (z+1)*len(nodes)/k
		for _, n := range nodes[lo:hi] {
			if err := view.AdoptNode(n); err != nil {
				return nil, err
			}
			p.zoneOfNode[n.ID()] = z
		}
		za := &zoneArbiter{
			idx: z, name: strconv.Itoa(z), view: view, mon: New(view, algo),
			healthyAt: -1,
		}
		za.mon.ids = p.ids
		zi := z
		za.mon.OutOfCapacity = func(alloc resources.Vector) bool {
			return p.leaseInto(zi, alloc)
		}
		p.zones = append(p.zones, za)
	}
	return p, nil
}

// InstallZoneFaults wires zone-outage / zone-partition windows into every
// arbiter: the injector is keyed by zone index, which only the plane's node→
// zone map can resolve, and a leased node answers for whichever zone it is in
// *now*. No-op (hooks stay nil, hot path untouched) when the config has no
// zone windows.
func (p *Plane) InstallZoneFaults(inj *faults.Injector) {
	if !inj.HasZoneWindows() {
		return
	}
	stats := func(now time.Duration, nodeID string) bool {
		zi, ok := p.zoneOfNode[nodeID]
		return ok && inj.ZoneStatsCut(now, p.zones[zi].name)
	}
	actions := func(now time.Duration, nodeID string) bool {
		zi, ok := p.zoneOfNode[nodeID]
		return ok && inj.ZoneActionsCut(now, p.zones[zi].name)
	}
	for _, z := range p.zones {
		z.mon.StatsCut = stats
		z.mon.ActionsCut = actions
	}
}

// Arbiters returns the zone monitors in zone order, so the platform can
// apply shared configuration (faults, hardening, self-healing, obs) and
// tests can inspect per-zone ledgers.
func (p *Plane) Arbiters() []*Monitor {
	out := make([]*Monitor, len(p.zones))
	for i, z := range p.zones {
		out[i] = z.mon
	}
	return out
}

// ZoneCount returns the number of zones.
func (p *Plane) ZoneCount() int { return len(p.zones) }

// ZoneOfService returns the zone a service was assigned to, or -1.
func (p *Plane) ZoneOfService(name string) int {
	if id, ok := p.ids[name]; ok {
		return p.homeOf[id]
	}
	return -1
}

// Cross returns the global allocator's cumulative counters.
func (p *Plane) Cross() CrossZoneCounts { return p.cross }

// ZoneSummaries returns each zone's merged view in zone order.
func (p *Plane) ZoneSummaries() []ZoneSummary {
	out := make([]ZoneSummary, len(p.zones))
	for i, z := range p.zones {
		s := ZoneSummary{
			Zone:           z.idx,
			Nodes:          len(z.view.Nodes()),
			Services:       len(z.services),
			Counts:         z.mon.Counts(),
			Recovery:       z.mon.Recovery(),
			PendingRetries: z.mon.PendingRetries(),
			LeaseFailures:  z.leaseFailures,
			Evacuated:      z.down,
		}
		for _, name := range z.services {
			s.Replicas += z.mon.ReplicaCount(name)
		}
		for _, name := range z.guests {
			s.Replicas += z.mon.ReplicaCount(name)
		}
		out[i] = s
	}
	return out
}

// Evac returns the evacuation / re-adoption counters.
func (p *Plane) Evac() EvacCounts { return p.evac }

// ServiceID returns the ID interned for a registered service name.
func (p *Plane) ServiceID(name string) (workload.ServiceID, bool) {
	id, ok := p.ids[name]
	return id, ok
}

// home returns the arbiter owning a service, or nil.
func (p *Plane) home(service string) *zoneArbiter { return p.homeByID(p.ids.of(service)) }

// homeByID returns the arbiter owning the service with that ID, or nil.
func (p *Plane) homeByID(id workload.ServiceID) *zoneArbiter {
	if id < 0 || int(id) >= len(p.homeOf) {
		return nil
	}
	return p.zones[p.homeOf[id]]
}

// AddService assigns the service to the zone with the fewest services
// (lowest index on ties — round-robin for uniform registration) and
// registers it with that zone's arbiter, which interns its ID in the shared
// table.
func (p *Plane) AddService(spec workload.ServiceSpec, targetUtil float64) error {
	if _, dup := p.ids[spec.Name]; dup {
		return fmt.Errorf("monitor: duplicate service %q", spec.Name)
	}
	best := 0
	for i := 1; i < len(p.zones); i++ {
		if len(p.zones[i].services) < len(p.zones[best].services) {
			best = i
		}
	}
	za := p.zones[best]
	if err := za.mon.AddService(spec, targetUtil); err != nil {
		return err
	}
	za.services = append(za.services, spec.Name)
	p.homeOf = append(p.homeOf, best)
	p.spills = append(p.spills, nil)
	return nil
}

// DeployInitial forwards to the service's home arbiter; a full home zone
// leases capacity through the arbiter's OutOfCapacity hook.
func (p *Plane) DeployInitial(service string, now time.Duration) error {
	za := p.home(service)
	if za == nil {
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	return za.mon.DeployInitial(service, now)
}

// StartReplica forwards a pinned placement to the service's home arbiter.
// The pinned node must live in the home zone: zones own their machines
// exclusively, so a cross-zone pin would create a replica its owner cannot
// poll.
func (p *Plane) StartReplica(service, nodeID string, alloc resources.Vector, now time.Duration) error {
	za := p.home(service)
	if za == nil {
		return fmt.Errorf("monitor: unknown service %q", service)
	}
	if z, ok := p.zoneOfNode[nodeID]; !ok || z != za.idx {
		return fmt.Errorf("monitor: node %q is not in service %q's zone %d", nodeID, service, za.idx)
	}
	return za.mon.StartReplica(service, nodeID, alloc, now)
}

// Sample forwards a stats-sampling tick to every zone's node managers.
func (p *Plane) Sample() {
	for _, z := range p.zones {
		z.mon.Sample()
	}
}

// Poll runs one monitoring period across all zones in index order. Before a
// zone decides, the allocator tops up its headroom: algorithms silently skip
// scale-outs when no local node fits, so a starved zone must receive an idle
// machine before Decide runs, not after.
func (p *Plane) Poll(now time.Duration) {
	if p.cfg.Evacuate {
		p.evacTick(now)
	}
	for _, z := range p.zones {
		if len(z.services) > 0 && p.starved(z) {
			p.leaseInto(z.idx, p.cfg.headroom())
		}
		z.mon.Poll(now)
	}
}

// healthyNodes counts the zone's nodes with a clean detector record (never
// missed a poll, ruled healthy).
func (p *Plane) healthyNodes(z *zoneArbiter) int {
	n := 0
	for _, node := range z.view.Nodes() {
		if st := z.mon.nodeStates[node.ID()]; st == nil || (st.missed == 0 && st.health == NodeHealthy) {
			n++
		}
	}
	return n
}

// starved reports whether no node in the zone has at least the configured
// headroom free (dead nodes excluded).
func (p *Plane) starved(z *zoneArbiter) bool {
	need := p.cfg.headroom()
	for _, n := range z.view.Nodes() {
		if z.mon.nodeDead(n.ID()) {
			continue
		}
		if need.FitsIn(n.Available()) {
			return false
		}
	}
	return true
}

// leaseInto moves one idle machine into the starved zone: the donor scan
// picks, across all other zones, the container-free detector-healthy node
// with the most available CPU that fits alloc (first such node on ties, in
// zone/node order), provided its donor keeps at least one *healthy* machine
// afterwards — a donor whose only other nodes are dead or suspect must not
// be drained down to them. Returns whether a machine moved.
func (p *Plane) leaseInto(zi int, alloc resources.Vector) bool {
	var donor *zoneArbiter
	var pick *cluster.Node
	for _, z := range p.zones {
		if z.idx == zi || p.healthyNodes(z) < 2 {
			continue
		}
		for _, n := range z.view.Nodes() {
			if len(n.Containers()) != 0 {
				continue
			}
			if st := z.mon.nodeStates[n.ID()]; st != nil && (st.missed > 0 || st.health != NodeHealthy) {
				// Unreachable machines don't move: the borrower would inherit
				// a node its fresh detector state knows nothing about.
				continue
			}
			if !alloc.FitsIn(n.Available()) {
				continue
			}
			if pick == nil || n.Available().CPU > pick.Available().CPU {
				donor, pick = z, n
			}
		}
	}
	if pick == nil {
		p.cross.LeaseFailures++
		p.zones[zi].leaseFailures++
		return false
	}
	id := pick.ID()
	donor.view.ReleaseNode(id)
	donor.mon.DetachNode(id)
	borrower := p.zones[zi]
	if err := borrower.view.AdoptNode(pick); err != nil {
		return false // unreachable: zones are disjoint
	}
	borrower.mon.AttachNode(pick)
	p.zoneOfNode[id] = zi
	p.cross.NodeLeases++
	return true
}

// Apply routes a plan's actions: scale-outs to the service's home arbiter,
// container-addressed actions to the zone whose view holds the container.
// Used by the manual-scale HTTP endpoint; the periodic loop never crosses
// this path (each arbiter applies its own plans inside Poll).
func (p *Plane) Apply(plan core.Plan, now time.Duration) {
	for _, a := range plan.Actions {
		one := core.Plan{Actions: []core.Action{a}}
		switch act := a.(type) {
		case core.ScaleOut:
			if za := p.home(act.Service); za != nil {
				za.mon.Apply(one, now)
			}
		case core.VerticalScale:
			if za := p.owner(act.ContainerID); za != nil {
				za.mon.Apply(one, now)
			}
		case core.ScaleIn:
			if za := p.owner(act.ContainerID); za != nil {
				za.mon.Apply(one, now)
			}
		}
	}
}

// owner returns the arbiter whose view holds the container, or nil.
func (p *Plane) owner(containerID string) *zoneArbiter {
	for _, z := range p.zones {
		if c, _ := z.view.FindContainer(containerID); c != nil {
			return z
		}
	}
	return nil
}

// MaybeCheckpoint forwards to every arbiter: the control plane crashes and
// checkpoints as a unit.
func (p *Plane) MaybeCheckpoint(now time.Duration) {
	for _, z := range p.zones {
		z.mon.MaybeCheckpoint(now)
	}
}

// Restart restarts every arbiter after a control-plane crash window, each
// from its own checkpoint (or cold).
func (p *Plane) Restart(now time.Duration) {
	for _, z := range p.zones {
		z.mon.Restart(now)
	}
}

// Replicas returns a service's live replicas from its home arbiter.
func (p *Plane) Replicas(service string) []*container.Container {
	return p.AppendReplicas(nil, service)
}

// AppendReplicas appends a service's live replicas from its home arbiter,
// followed by any spillover shards in the order they were spilled.
func (p *Plane) AppendReplicas(buf []*container.Container, service string) []*container.Container {
	return p.AppendReplicasID(buf, p.ids.of(service))
}

// AppendReplicasID is AppendReplicas by service ID.
func (p *Plane) AppendReplicasID(buf []*container.Container, id workload.ServiceID) []*container.Container {
	za := p.homeByID(id)
	if za == nil {
		return buf
	}
	buf = za.mon.AppendReplicasID(buf, id)
	for _, zi := range p.spills[id] {
		buf = p.zones[zi].mon.AppendReplicasID(buf, id)
	}
	return buf
}

// ReplicaCount returns a service's live replica count across its home
// arbiter and any spillover shards.
func (p *Plane) ReplicaCount(service string) int { return p.ReplicaCountID(p.ids.of(service)) }

// ReplicaCountID is ReplicaCount by service ID.
func (p *Plane) ReplicaCountID(id workload.ServiceID) int {
	za := p.homeByID(id)
	if za == nil {
		return 0
	}
	n := za.mon.ReplicaCountID(id)
	for _, zi := range p.spills[id] {
		n += p.zones[zi].mon.ReplicaCountID(id)
	}
	return n
}

// Counts returns the action counters summed across all zone arbiters.
func (p *Plane) Counts() ActionCounts {
	var out ActionCounts
	for _, z := range p.zones {
		c := z.mon.Counts()
		out.Vertical += c.Vertical
		out.ScaleOuts += c.ScaleOuts
		out.ScaleIns += c.ScaleIns
		out.PlacementFailures += c.PlacementFailures
		out.Retries += c.Retries
		out.AbandonedActions += c.AbandonedActions
		out.StaleSnapshots += c.StaleSnapshots
	}
	return out
}

// Recovery returns the self-healing counters summed across all arbiters.
func (p *Plane) Recovery() RecoveryCounts {
	var out RecoveryCounts
	for _, z := range p.zones {
		r := z.mon.Recovery()
		out.Suspected += r.Suspected
		out.DeclaredDead += r.DeclaredDead
		out.Recovered += r.Recovered
		out.ReplicasLost += r.ReplicasLost
		out.Replaced += r.Replaced
		out.Readopted += r.Readopted
		out.StaleDrained += r.StaleDrained
		out.ReconcileCancelled += r.ReconcileCancelled
		out.CheckpointRestores += r.CheckpointRestores
		out.ColdRestarts += r.ColdRestarts
	}
	return out
}

// NodeConditions concatenates every zone's detector view in zone order.
func (p *Plane) NodeConditions() []NodeCondition {
	var out []NodeCondition
	for _, z := range p.zones {
		out = append(out, z.mon.NodeConditions()...)
	}
	return out
}

// PendingRetries sums the retry-queue depth across all arbiters.
func (p *Plane) PendingRetries() int {
	n := 0
	for _, z := range p.zones {
		n += z.mon.PendingRetries()
	}
	return n
}

// Algorithm returns the shared scaling algorithm.
func (p *Plane) Algorithm() core.Algorithm { return p.algo }

// DetachNode drops a machine from its zone's view and arbiter — the
// out-of-band failure notification used when self-healing is off.
func (p *Plane) DetachNode(nodeID string) {
	z, ok := p.zoneOfNode[nodeID]
	if !ok {
		return
	}
	p.zones[z].view.ReleaseNode(nodeID) // nil when NoteNodeRemoved already ran
	p.zones[z].mon.DetachNode(nodeID)
	delete(p.zoneOfNode, nodeID)
}

// AttachNode assigns a newly added machine to the zone with the fewest nodes
// (lowest index on ties) and registers it with that zone's arbiter.
func (p *Plane) AttachNode(n *cluster.Node) {
	if _, dup := p.zoneOfNode[n.ID()]; dup {
		return
	}
	best := 0
	for i := 1; i < len(p.zones); i++ {
		if len(p.zones[i].view.Nodes()) < len(p.zones[best].view.Nodes()) {
			best = i
		}
	}
	if err := p.zones[best].view.AdoptNode(n); err != nil {
		return
	}
	p.zones[best].mon.AttachNode(n)
	p.zoneOfNode[n.ID()] = best
}

// NoteNodeRemoved mirrors a machine's physical removal into its zone view
// WITHOUT detaching it from the arbiter: the zone's failure detector must
// discover the death through missed polls, exactly as the single monitor
// does when the platform removes a node under self-healing.
func (p *Plane) NoteNodeRemoved(nodeID string) {
	if z, ok := p.zoneOfNode[nodeID]; ok {
		p.zones[z].view.ReleaseNode(nodeID)
	}
}
