// Package platform assembles the full autoscaler platform of §V — cluster,
// node managers, Monitor, load balancers, client load generators and metrics
// — into a single runnable World driven by the discrete-event engine. Every
// experiment and example in this repository is a World configuration.
package platform

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/cost"
	"hyscale/internal/faults"
	"hyscale/internal/lb"
	"hyscale/internal/loadgen"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/obs"
	"hyscale/internal/resilience"
	"hyscale/internal/resources"
	"hyscale/internal/scalermgr"
	"hyscale/internal/sim"
	"hyscale/internal/workload"
)

// Config parameterises a World. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Seed drives all randomness (Poisson arrivals).
	Seed int64
	// Nodes is the number of worker machines.
	Nodes int
	// NodeTemplate shapes every machine (ID is overwritten).
	NodeTemplate cluster.NodeConfig
	// Tick is the physics timestep.
	Tick time.Duration
	// MonitorPeriod is the stats-query/decision period (paper: 5 s).
	MonitorPeriod time.Duration
	// StartDelay is container start latency for scale-outs.
	StartDelay time.Duration
	// LBPolicy selects the load-balancer routing policy.
	LBPolicy lb.Policy
	// DistributionOverhead is the per-log2(replicas) latency the balancer
	// charges (§III-A). Zero disables it.
	DistributionOverhead time.Duration
	// BaseLatency is the constant per-request cost every request pays
	// regardless of scaling decisions: the LB proxy hop, connection setup
	// and network round trip inside the data centre.
	BaseLatency time.Duration
	// PoissonArrivals randomises per-tick arrival counts.
	PoissonArrivals bool
	// Cost prices the run (machine-hours + SLA penalties); see the cost
	// package. The default uses cost.DefaultConfig.
	Cost cost.Config
	// Faults configures control-plane fault injection; the zero value
	// injects nothing and leaves every hot path untouched.
	Faults faults.Config
	// HardeningOff disables the control plane's resilience mechanisms
	// (Monitor retry/backoff, stale-snapshot degradation, LB health checks)
	// so experiments can measure what the hardening buys.
	HardeningOff bool
	// SelfHealing configures the Monitor's failure detector, desired-state
	// reconciler and checkpoint/restore. The zero value disables all three,
	// reproducing the legacy behaviour where node failures are reported
	// out-of-band and lost replicas are never re-placed.
	SelfHealing monitor.SelfHealing
	// Observe enables the decision-trace observability layer: the World owns
	// an obs.Journal that records every Monitor decision and per-service
	// time series sampled each monitor period. Off (the default) costs
	// nothing on the hot path.
	Observe bool
	// CallGraph declares inter-service call dependencies. The zero value
	// (no edges) keeps every service independent — the paper's workload —
	// and leaves the request hot path untouched.
	CallGraph workload.CallGraph
	// Resilience enables the cascading-failure defenses (circuit breakers,
	// retry budgets, deadline propagation, load shedding) on the call
	// graph's traffic. The zero value disables everything.
	Resilience resilience.Config
	// Zones shards the control plane into that many per-zone arbiters under
	// a thin global allocator (see monitor.Plane), and shards the event heap
	// to match. 0 or 1 — the default — runs the single central Monitor with
	// byte-identical output to every release before zoning existed.
	Zones int
	// ZoneLeaseHeadroomCPU tunes the allocator's proactive-lease threshold
	// (cores of single-node headroom a zone must retain); zero means the
	// 1-core default. Ignored unless Zones > 1.
	ZoneLeaseHeadroomCPU float64
	// EvacuateZones enables the zone disaster-recovery path: a zone whose
	// nodes are all ruled dead has its services re-homed into surviving
	// zones, and migrated back (after an anti-flap cooldown) when it heals.
	// Requires SelfHealing — the per-zone failure detectors are the trigger.
	// Ignored unless Zones > 1.
	EvacuateZones bool
	// ZoneSpilloverZones bounds how many zones one evacuated service may
	// span when no single surviving zone fits all its replicas (home plus
	// spill shards). Values <= 1 disable spillover.
	ZoneSpilloverZones int
	// ZoneReadoptAfter is how long a healed zone must stay fully healthy
	// before its evacuated services migrate home; zero means the 30 s
	// default.
	ZoneReadoptAfter time.Duration
}

// DefaultConfig mirrors the paper's experimental setup: 24 nodes minus the
// five LB nodes leaves 19 workers; 4-core/8 GiB machines; 5 s monitor
// period.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                 seed,
		Nodes:                19,
		NodeTemplate:         cluster.DefaultNodeConfig(""),
		Tick:                 100 * time.Millisecond,
		MonitorPeriod:        5 * time.Second,
		StartDelay:           time.Second,
		LBPolicy:             lb.LeastOutstanding,
		DistributionOverhead: 25 * time.Millisecond,
		BaseLatency:          75 * time.Millisecond,
		PoissonArrivals:      false,
		Cost:                 cost.DefaultConfig(),
	}
}

// serviceRuntime couples a service with its interned ID, its load generator
// and its replica-count series.
type serviceRuntime struct {
	spec     workload.ServiceSpec
	id       workload.ServiceID
	gen      *loadgen.Generator
	replicas *metrics.TimeSeries
}

// ConnFailureBreakdown attributes connection failures recorded at routing
// time to their cause — the distinction the chaos experiment reports.
type ConnFailureBreakdown struct {
	// Starting: replicas existed but all were still mid-start.
	Starting uint64
	// Absent: no viable replica at all (none exist, or every one was
	// overloaded or health-ejected).
	Absent uint64
	// Unhealthy: the balancer picked a backend that was black-holing
	// connections (injected outage not yet detected by health probes).
	Unhealthy uint64
}

// World is one fully-wired experiment instance.
type World struct {
	cfg     Config
	engine  *sim.Engine
	cluster *cluster.Cluster
	// ctl is the control plane the world drives: the single monitor for
	// Zones <= 1, the zoned plane otherwise. Exactly one of monitor/plane is
	// non-nil.
	ctl     monitor.ControlPlane
	monitor *monitor.Monitor
	plane   *monitor.Plane
	lb      *lb.Balancer
	// algo is the algorithm instance driving the control plane, kept so
	// algorithm-specific observability (the scaler manager's per-scaler
	// recommendations) can be surfaced without re-plumbing the monitor.
	algo core.Algorithm

	// services is indexed by workload.ServiceID: AddService interns each
	// name once, in registration order, and the control plane and recorder
	// number their services the same way. Requests carry the ID, so routing
	// and recording index slices instead of hashing names. byName serves the
	// name-keyed edges (injection, call-graph edges).
	services []*serviceRuntime
	byName   map[string]*serviceRuntime
	// ids numbers requests and carves them from fixed-size chunks.
	ids loadgen.IDAllocator

	recorder *metrics.Recorder
	costs    *cost.Tracker
	faults   *faults.Injector
	connFail ConnFailureBreakdown
	journal  *obs.Journal
	// graph is the call-graph propagation layer, nil unless the config
	// declares a CallGraph or any resilience defense.
	graph *graphRun

	// ReplicaSeries records per-service replica counts at each monitor
	// poll, for the resource-efficiency analyses.
	ReplicaSeries map[string]*metrics.TimeSeries
	// UtilSeries records cluster-wide CPU usage fraction per poll.
	UtilSeries *metrics.TimeSeries

	// replicaBuf is the reusable replica-lookup buffer for per-request
	// routing — the single hottest path in a macro run. Valid only within
	// one route/poll call; never retained.
	replicaBuf []*container.Container

	stressIdx int
	started   bool
	// monitorDown tracks whether the last poll fell inside a monitor-crash
	// fault window, so the first poll after the window restarts the Monitor
	// (checkpoint restore or cold, per SelfHealing.Checkpoint).
	monitorDown bool
	// monitorCrashes counts poll periods lost to monitor-crash windows.
	monitorCrashes uint64
}

// New builds a world. algo may be nil for experiments with no autoscaler
// (the §III fixed-allocation microbenchmarks).
func New(cfg Config, algo core.Algorithm) (*World, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("platform: need at least one node")
	}
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("platform: tick must be positive")
	}
	cl, err := cluster.NewHomogeneous(cfg.Nodes, cfg.NodeTemplate)
	if err != nil {
		return nil, err
	}
	w := &World{
		cfg:           cfg,
		engine:        sim.New(cfg.Seed),
		cluster:       cl,
		lb:            lb.New(cfg.LBPolicy),
		byName:        make(map[string]*serviceRuntime),
		recorder:      metrics.NewRecorder(),
		costs:         cost.NewTracker(cfg.Cost),
		ReplicaSeries: make(map[string]*metrics.TimeSeries),
		UtilSeries:    &metrics.TimeSeries{Name: "cluster-cpu-util"},
	}
	w.lb.DistributionOverhead = cfg.DistributionOverhead
	if algo == nil {
		algo = noopAlgorithm{}
	}
	zones := cfg.Zones
	if zones > cfg.Nodes {
		// A zone with no nodes can never host a service, and the lease scan
		// would silently skip it — reject instead of shrinking the request.
		return nil, fmt.Errorf("platform: zones (%d) exceeds node count (%d)", zones, cfg.Nodes)
	}
	if cfg.EvacuateZones && !cfg.SelfHealing.Enabled {
		return nil, fmt.Errorf("platform: zone evacuation requires self-healing (the per-zone failure detectors are its trigger)")
	}
	if zones > 1 {
		p, err := monitor.NewPlane(cl, algo, monitor.PlaneConfig{
			Zones:            zones,
			LeaseHeadroomCPU: cfg.ZoneLeaseHeadroomCPU,
			Evacuate:         cfg.EvacuateZones,
			SpilloverZones:   cfg.ZoneSpilloverZones,
			ReadoptAfter:     cfg.ZoneReadoptAfter,
		})
		if err != nil {
			return nil, err
		}
		w.plane = p
		w.ctl = p
		// Shard the event heap to match: heap maintenance stays flat as the
		// zoned worlds grow the event volume. Ordering is provably identical.
		if err := w.engine.SetShards(zones); err != nil {
			return nil, err
		}
	} else {
		w.monitor = monitor.New(cl, algo)
		w.ctl = w.monitor
	}
	if cfg.Observe {
		w.journal = obs.NewJournal()
	}
	w.algo = algo
	// Multi-metric manager observability: a structural assertion (rather
	// than a scalermgr import in the hot path types) keeps non-manager runs
	// byte-identical — the observer fires only under Observe, and
	// ManagerRecommendations returns nil for every other algorithm.
	if cfg.Observe {
		if mgr, ok := algo.(recommendObservable); ok {
			mgr.SetRecommendObserver(func(now time.Duration, service, detail string) {
				w.journal.Event(obs.Event{
					At:      now,
					Kind:    obs.EventScalerRecommend,
					Service: service,
					Detail:  detail,
				})
			})
		}
	}
	onRemoval := func(r *workload.Request) {
		if w.graph != nil {
			w.graph.onRemoval(r)
			return
		}
		w.recorder.RecordFailureID(r.ServiceID, workload.FailureRemoval)
		w.costs.ObserveFailure()
	}
	for _, m := range w.arbiters() {
		m.Obs = w.journal
		m.StartDelay = cfg.StartDelay
		m.SelfHeal = cfg.SelfHealing
		m.OnRemovalFailure = onRemoval
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	for _, wnd := range cfg.Faults.Windows {
		if wnd.Kind != faults.KindZoneOutage && wnd.Kind != faults.KindZonePartition {
			continue
		}
		if zones <= 1 {
			return nil, fmt.Errorf("platform: %s fault windows need a zoned control plane (zones >= 2)", wnd.Kind)
		}
		zi, err := strconv.Atoi(wnd.Target)
		if err != nil || zi < 0 || zi >= zones {
			return nil, fmt.Errorf("platform: %s window targets zone %q, want an index in [0,%d)", wnd.Kind, wnd.Target, zones)
		}
	}
	if err := cfg.Resilience.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.CallGraph.Validate(nil); err != nil {
		return nil, err
	}
	if cfg.CallGraph.Enabled() || cfg.Resilience.Enabled() {
		m := resilience.NewManager(cfg.Resilience, cfg.Seed)
		if m != nil && cfg.Observe {
			m.OnTransition = func(now time.Duration, edge string, from, to resilience.BreakerState) {
				w.journal.Event(obs.Event{
					At:     now,
					Kind:   breakerEventKind(to),
					Detail: edge + ": " + from.String() + " -> " + to.String(),
				})
			}
		}
		w.graph = newGraphRun(w, cfg.CallGraph, m)
	}
	w.faults = faults.New(cfg.Faults)
	if w.plane != nil {
		w.plane.InstallZoneFaults(w.faults)
	}
	for _, m := range w.arbiters() {
		m.Faults = w.faults
		if cfg.HardeningOff {
			m.Hardening.Enabled = false
		}
	}
	if !cfg.HardeningOff && w.faults.Enabled() {
		// The hardened balancer probes backends against the injected outage
		// schedule; the unhardened one routes blind and eats the failures.
		w.lb.HealthCheck = func(now time.Duration, c *container.Container) bool {
			return !w.faults.BackendDown(now, c.Service, c.ID)
		}
	}
	return w, nil
}

// recommendObservable is the structural face of the scaler manager's
// observer hook (scalermgr.Manager implements it); asserting it here keeps
// the wiring independent of which algorithm the world runs.
type recommendObservable interface {
	SetRecommendObserver(func(at time.Duration, service, detail string))
}

// ManagerRecommendations returns the multi-metric scaler manager's latest
// per-scaler recommendations, and nil when any other algorithm drives the
// world — callers (httpapi) emit manager metrics only when non-nil.
func (w *World) ManagerRecommendations() []scalermgr.Recommendation {
	if mgr, ok := w.algo.(interface {
		Recommendations() []scalermgr.Recommendation
	}); ok {
		return mgr.Recommendations()
	}
	return nil
}

// noopAlgorithm never scales; it stands in when experiments drive
// allocations manually.
type noopAlgorithm struct{}

func (noopAlgorithm) Name() string                   { return "static" }
func (noopAlgorithm) Decide(core.Snapshot) core.Plan { return core.Plan{} }

// arbiters returns every Monitor in the world — the single central one, or
// one per zone — so shared configuration applies uniformly.
func (w *World) arbiters() []*monitor.Monitor {
	if w.plane != nil {
		return w.plane.Arbiters()
	}
	return []*monitor.Monitor{w.monitor}
}

// Engine exposes the simulation engine (for custom scheduled events).
func (w *World) Engine() *sim.Engine { return w.engine }

// Cluster exposes the cluster (for assertions in tests).
func (w *World) Cluster() *cluster.Cluster { return w.cluster }

// Monitor exposes the central arbiter. It is nil when the control plane is
// zoned (Config.Zones > 1); zone-agnostic callers should use Control.
func (w *World) Monitor() *monitor.Monitor { return w.monitor }

// Control exposes the control plane: the central Monitor, or the zoned
// Plane when Config.Zones > 1.
func (w *World) Control() monitor.ControlPlane { return w.ctl }

// Plane exposes the zoned control plane, nil when Config.Zones <= 1.
func (w *World) Plane() *monitor.Plane { return w.plane }

// Zones returns the number of control-plane zones (1 for the single
// central monitor).
func (w *World) Zones() int {
	if w.plane != nil {
		return w.plane.ZoneCount()
	}
	return 1
}

// ZoneSummaries returns per-zone merged views, nil for single-zone worlds.
func (w *World) ZoneSummaries() []monitor.ZoneSummary {
	if w.plane == nil {
		return nil
	}
	return w.plane.ZoneSummaries()
}

// CrossZone returns the global allocator's counters (zero for single-zone
// worlds).
func (w *World) CrossZone() monitor.CrossZoneCounts {
	if w.plane == nil {
		return monitor.CrossZoneCounts{}
	}
	return w.plane.Cross()
}

// ZoneEvac returns the zone evacuation / re-adoption counters, nil when the
// world is unzoned or evacuation is disabled.
func (w *World) ZoneEvac() *monitor.EvacCounts {
	if w.plane == nil || !w.cfg.EvacuateZones {
		return nil
	}
	ec := w.plane.Evac()
	return &ec
}

// Recorder exposes the metrics recorder.
func (w *World) Recorder() *metrics.Recorder { return w.recorder }

// AddService registers a microservice with its utilization target and load
// pattern, and deploys its minimum replicas.
func (w *World) AddService(spec workload.ServiceSpec, targetUtil float64, pattern loadgen.Pattern) error {
	if err := w.ctl.AddService(spec, targetUtil); err != nil {
		return err
	}
	id := workload.ServiceID(len(w.services))
	if cid, _ := w.ctl.ServiceID(spec.Name); cid != id || w.recorder.Intern(spec.Name) != id {
		// The recorder interned names before registration (a caller recorded
		// through Recorder directly), so the ID spaces disagree.
		return fmt.Errorf("platform: service %q: control plane and recorder IDs out of registration order", spec.Name)
	}
	rt := &serviceRuntime{spec: spec, id: id, replicas: &metrics.TimeSeries{Name: spec.Name + "-replicas"}}
	if pattern != nil {
		rt.gen = loadgen.NewGenerator(spec, pattern, &w.ids)
		rt.gen.Poisson = w.cfg.PoissonArrivals
		rt.gen.ServiceID = id
	}
	w.services = append(w.services, rt)
	w.byName[spec.Name] = rt
	w.ReplicaSeries[spec.Name] = rt.replicas
	if err := w.ctl.DeployInitial(spec.Name, w.engine.Now()); err != nil {
		return err
	}
	return nil
}

// DeployReplica pins one replica of service to a node with an explicit
// allocation — the §III microbenchmarks use this instead of the autoscaler.
func (w *World) DeployReplica(service, nodeID string, alloc resources.Vector) error {
	return w.ctl.StartReplica(service, nodeID, alloc, w.engine.Now())
}

// AddStressContainer places a stress contender (the paper's progrium-stress
// or network-hog container) on a node. cpuDemand is in cores; netFlows is
// the number of flooding egress flows (0 for none).
func (w *World) AddStressContainer(nodeID string, alloc resources.Vector, cpuDemand float64, netFlows int) error {
	n := w.cluster.Node(nodeID)
	if n == nil {
		return fmt.Errorf("platform: unknown node %q", nodeID)
	}
	w.stressIdx++
	spec := workload.ServiceSpec{
		Name: fmt.Sprintf("stress-%d", w.stressIdx), Kind: workload.KindCPUBound,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 64,
		MinReplicas: 1, MaxReplicas: 1, Timeout: time.Hour,
	}
	c := container.New(spec.Name, spec, nodeID, alloc, 0)
	c.StressCPUDemand = cpuDemand
	c.StressNetFlows = netFlows
	c.MaybeStart(0)
	return n.AddContainer(c)
}

// InjectRequests schedules n requests for the service arriving uniformly
// over the window starting at 'at' — used by the fixed-count (§III)
// microbenchmarks.
//
// Arrivals are coalesced: all n requests share one IndexedEvent closure, and
// requests landing on the same simulated instant share one heap entry
// (ScheduleBatch), so injection costs O(distinct instants) events instead of
// n closures. Request IDs, arrival instants and routing order are identical
// to scheduling each request individually.
func (w *World) InjectRequests(at time.Duration, window time.Duration, service string, n int) error {
	rt, ok := w.byName[service]
	if !ok {
		return fmt.Errorf("platform: unknown service %q", service)
	}
	if n <= 0 {
		return nil
	}
	if window <= 0 {
		window = w.cfg.Tick
	}
	w.recorder.Reserve(service, n)
	reqs := make([]*workload.Request, n)
	for i := range reqs {
		arrive := at + time.Duration(float64(window)*float64(i)/float64(n))
		reqs[i] = w.ids.NewRequest(&rt.spec, arrive)
		reqs[i].ServiceID = rt.id
	}
	fire := func(e *sim.Engine, i int) { w.route(reqs[i]) }
	for i := 0; i < n; {
		j := i + 1
		for j < n && reqs[j].Arrival == reqs[i].Arrival {
			j++
		}
		if err := w.engine.ScheduleBatch(reqs[i].Arrival, i, j-i, fire); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// route sends one request through the load balancer. Call-graph worlds
// divert to the propagation layer; plain worlds run the original path.
func (w *World) route(req *workload.Request) {
	if w.graph != nil {
		w.graph.route(req)
		return
	}
	req.ExtraLatency += w.cfg.BaseLatency
	now := w.engine.Now()
	w.replicaBuf = w.ctl.AppendReplicasID(w.replicaBuf[:0], req.ServiceID)
	target, err := w.lb.RouteAt(now, req, w.replicaBuf)
	if err != nil {
		if errors.Is(err, lb.ErrAllStarting) {
			w.connFail.Starting++
		} else {
			w.connFail.Absent++
		}
		w.recorder.RecordFailureID(req.ServiceID, workload.FailureConnection)
		w.costs.ObserveFailure()
		return
	}
	if w.faults.BackendDown(now, target.Service, target.ID) {
		// The chosen backend is black-holing connections — an outage the
		// balancer's probes have not (or, unhardened, will never) notice.
		w.connFail.Unhealthy++
		w.recorder.RecordFailureID(req.ServiceID, workload.FailureConnection)
		w.costs.ObserveFailure()
		return
	}
	target.Enqueue(req)
}

// tick runs one physics step: generate arrivals, advance the cluster,
// record completions/timeouts, sample node stats.
func (w *World) tick(e *sim.Engine) {
	now := e.Now()
	dt := w.cfg.Tick

	for _, rt := range w.services {
		if rt.gen == nil {
			continue
		}
		for _, req := range rt.gen.Arrivals(now, dt, e.Rand()) {
			w.route(req)
		}
	}

	res := w.cluster.Advance(now, dt)
	if w.graph != nil {
		w.graph.afterAdvance(now+dt, res)
	} else {
		for _, done := range res.Completed {
			r := done.Request
			latency := done.At - r.Arrival + r.ExtraLatency
			if latency < 0 {
				latency = 0
			}
			w.recorder.RecordCompletionID(r.ServiceID, latency)
			w.costs.ObserveCompletion(latency)
		}
		for _, r := range res.TimedOut {
			w.recorder.RecordFailureID(r.ServiceID, workload.FailureConnection)
			w.costs.ObserveFailure()
		}
	}

	// Machines hosting at least one container count as powered; idle ones
	// are assumed reclaimable (§I's power argument).
	active := 0
	for _, n := range w.cluster.Nodes() {
		if len(n.Containers()) > 0 {
			active++
		}
	}
	w.costs.ObserveMachines(active, dt)

	w.ctl.Sample()
}

// poll runs one Monitor decision period and records bookkeeping series.
// Polls inside a monitor-crash fault window are skipped entirely — the
// control plane is down while the data plane keeps serving — and the first
// poll after the window restarts the Monitor from its last checkpoint (or
// cold). The bookkeeping series keep sampling throughout so the outage is
// visible in the run artifacts.
func (w *World) poll(e *sim.Engine) {
	now := e.Now()
	if w.faults.MonitorCrashed(now) {
		w.monitorDown = true
		w.monitorCrashes++
	} else {
		if w.monitorDown {
			w.monitorDown = false
			w.ctl.Restart(now)
		}
		w.ctl.Poll(now)
		w.ctl.MaybeCheckpoint(now)
	}

	var usedCPU, capCPU float64
	for _, n := range w.cluster.Nodes() {
		capCPU += n.Capacity().CPU
		for _, c := range n.Containers() {
			usedCPU += c.LastUsage().CPU
		}
	}
	if capCPU > 0 {
		w.UtilSeries.Append(now, usedCPU/capCPU)
	}
	for _, rt := range w.services {
		rt.replicas.Append(now, float64(w.ctl.ReplicaCountID(rt.id)))
	}

	if w.journal != nil {
		// Per-service time-series samples, in service registration order so
		// artifact bytes are deterministic.
		for _, rt := range w.services {
			name := rt.spec.Name
			w.replicaBuf = w.ctl.AppendReplicasID(w.replicaBuf[:0], rt.id)
			replicas := w.replicaBuf
			var cpuShares, cpuUsage, netMbps float64
			for _, c := range replicas {
				cpuShares += c.Alloc.CPU
				u := c.LastUsage()
				cpuUsage += u.CPU
				netMbps += u.NetMbps
			}
			completed, removal, conn, totalLat := w.recorder.ServiceCounters(name)
			w.journal.Sample(now, name, len(replicas), cpuShares, cpuUsage, netMbps,
				completed, removal+conn, totalLat)
		}
	}
}

// Run simulates until the horizon (absolute simulated time). It may be
// called repeatedly to step the world forward incrementally; the periodic
// physics and monitor tasks are scheduled exactly once.
func (w *World) Run(horizon time.Duration) error {
	if !w.started {
		if w.graph != nil {
			if err := w.graph.checkServices(); err != nil {
				return err
			}
		}
		if err := w.engine.SchedulePeriodic(w.cfg.Tick, w.cfg.Tick, w.tick); err != nil {
			return err
		}
		if w.cfg.MonitorPeriod > 0 {
			if err := w.engine.SchedulePeriodic(w.cfg.MonitorPeriod, w.cfg.MonitorPeriod, w.poll); err != nil {
				return err
			}
		}
		w.started = true
	}
	return w.engine.Run(horizon)
}

// RunUntilDrained keeps ticking past the horizon until no requests remain in
// flight (or maxExtra elapses) — fixed-count microbenchmarks use this so
// every injected request resolves.
func (w *World) RunUntilDrained(horizon, maxExtra time.Duration) error {
	if err := w.Run(horizon); err != nil {
		return err
	}
	deadline := horizon + maxExtra
	for w.engine.Now() < deadline {
		if w.inflight() == 0 {
			return nil
		}
		if err := w.engine.Run(w.engine.Now() + 10*w.cfg.Tick); err != nil {
			return err
		}
	}
	return nil
}

func (w *World) inflight() int {
	n := 0
	for _, node := range w.cluster.Nodes() {
		for _, c := range node.Containers() {
			n += c.Inflight()
		}
	}
	return n
}

// Summary returns the aggregate user-perceived performance report.
func (w *World) Summary() metrics.Summary { return w.recorder.Summarize() }

// ClampedEvents reports how many events the engine clamped to "now" because
// a component scheduled them in the past — see sim.Engine.Clamped. Run
// results surface this so stale-timestamp bugs cannot hide in dropped error
// returns.
func (w *World) ClampedEvents() uint64 { return w.engine.Clamped() }

// FaultInjector exposes the fault-injection layer (nil when faults are
// disabled) — experiments probe it for uptime accounting.
func (w *World) FaultInjector() *faults.Injector { return w.faults }

// ConnFailures returns the routing-time connection-failure breakdown.
func (w *World) ConnFailures() ConnFailureBreakdown { return w.connFail }

// Journal returns the decision-trace journal, or nil when Config.Observe was
// off. All Journal methods are nil-safe, so callers may use the result
// unconditionally.
func (w *World) Journal() *obs.Journal { return w.journal }

// MonitorCrashes returns how many poll periods were lost to monitor-crash
// fault windows.
func (w *World) MonitorCrashes() uint64 { return w.monitorCrashes }

// CascadeStats returns the call-graph run's root-outcome and per-edge
// counters (zero when no call graph is configured).
func (w *World) CascadeStats() CascadeStats {
	if w.graph == nil {
		return CascadeStats{}
	}
	return w.graph.Stats()
}

// HasCallGraph reports whether this world routes requests through a
// per-service call DAG (the cascade propagation layer).
func (w *World) HasCallGraph() bool { return w.graph != nil }

// Resilience returns the run's resilience manager, nil when no defense is
// enabled. All Manager methods are nil-safe.
func (w *World) Resilience() *resilience.Manager {
	if w.graph == nil {
		return nil
	}
	return w.graph.res
}

// CostReport prices the run so far (machine-hours + SLA penalties).
func (w *World) CostReport() cost.Report { return w.costs.Report() }

// ScheduleNodeFailure schedules machine nodeID to fail at the given
// simulated time: every container on it dies (in-flight requests are
// recorded as removal failures) and the Monitor stops querying it. Used by
// the availability-under-churn experiments.
func (w *World) ScheduleNodeFailure(at time.Duration, nodeID string) error {
	return w.engine.Schedule(at, func(e *sim.Engine) {
		killed, err := w.cluster.RemoveNode(nodeID)
		if err != nil {
			return // already gone
		}
		if w.plane != nil {
			// Mirror the physical removal into the owning zone's view so the
			// zone arbiter sees the machine gone, just as the single monitor
			// does through the shared cluster.
			w.plane.NoteNodeRemoved(nodeID)
		}
		if !w.cfg.SelfHealing.Enabled {
			// Legacy out-of-band notification. With self-healing on, the
			// failure detector must discover the death through missed polls.
			w.ctl.DetachNode(nodeID)
		}
		for _, r := range killed {
			w.recorder.RecordFailureID(r.ServiceID, workload.FailureRemoval)
			w.costs.ObserveFailure()
		}
	})
}

// ScheduleNodeRecovery schedules a fresh machine to join the cluster at the
// given simulated time (the paper's dynamic machine-addition future work).
func (w *World) ScheduleNodeRecovery(at time.Duration, cfg cluster.NodeConfig) error {
	return w.engine.Schedule(at, func(e *sim.Engine) {
		if err := w.cluster.AddNode(cfg); err != nil {
			return // duplicate ID
		}
		w.ctl.AttachNode(w.cluster.Node(cfg.ID))
	})
}
