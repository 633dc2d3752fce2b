package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/cost"
	"hyscale/internal/lb"
	"hyscale/internal/loadgen"
	simmetrics "hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/sim"
	"hyscale/internal/workload"
)

// The layer driver assembles a world from the simulator's layers through
// their exported constructors and replays platform.World's tick, route and
// poll with a span around every call into a layer. It models only the
// features the benchmark workloads use; a document that needs anything else
// is rejected rather than replayed differently. The fidelity gate holds it
// to the World: both must produce identical outcomes for the same document.

// layerCounts are the work counters the driver records at layer boundaries.
type layerCounts struct {
	generated    uint64 // requests handed out by loadgen
	routes       uint64
	routeFails   uint64
	completions  uint64
	timeouts     uint64
	records      uint64 // recorder calls: completions and every failure
	polls        uint64
	nodeTicks    uint64 // nodes × steps at the initial node count
	inflightLeft uint64 // requests still in containers at the horizon
}

func (c *layerCounts) add(o layerCounts) {
	c.generated += o.generated
	c.routes += o.routes
	c.routeFails += o.routeFails
	c.completions += o.completions
	c.timeouts += o.timeouts
	c.records += o.records
	c.polls += o.polls
	c.nodeTicks += o.nodeTicks
	c.inflightLeft += o.inflightLeft
}

// timedAlgorithm times Decide as a span nested in the control plane's poll.
type timedAlgorithm struct {
	core.Algorithm
	tr *tracer
}

func (a timedAlgorithm) Decide(s core.Snapshot) core.Plan {
	a.tr.begin(decideSpan)
	p := a.Algorithm.Decide(s)
	a.tr.end()
	return p
}

type driver struct {
	cfg      platform.Config
	tr       *tracer
	engine   *sim.Engine
	cluster  *cluster.Cluster
	ctl      monitor.ControlPlane
	plane    *monitor.Plane
	lb       *lb.Balancer
	gens     []*loadgen.Generator
	ids      loadgen.IDAllocator
	recorder *simmetrics.Recorder
	costs    *cost.Tracker
	connFail platform.ConnFailureBreakdown
	buf      []*container.Container
	counts   layerCounts

	replicaSeries map[string]*simmetrics.TimeSeries
	utilSeries    simmetrics.TimeSeries
}

// unsupported rejects specs using features the driver does not replay.
func unsupported(spec runner.RunSpec) error {
	cfg := spec.Platform
	switch {
	case cfg.Faults.Enabled():
		return errors.New("fault injection")
	case cfg.CallGraph.Enabled() || cfg.Resilience.Enabled():
		return errors.New("call graphs and resilience")
	case cfg.Observe || spec.Observe:
		return errors.New("the decision journal")
	case cfg.EvacuateZones:
		return errors.New("zone evacuation")
	case len(spec.Pinned)+len(spec.Stress)+len(spec.Inject)+len(spec.NodeRecoveries)+len(spec.Hooks) > 0:
		return errors.New("pins, stress, injections, recoveries and hooks")
	case spec.DrainExtra > 0:
		return errors.New("drain-until-empty runs")
	case spec.Algorithm == "" || spec.Algorithm == "none":
		return errors.New("runs without an autoscaler")
	}
	return nil
}

// newDriver mirrors runner.Build and platform.New for the supported
// feature set.
func newDriver(spec runner.RunSpec, tr *tracer) (*driver, error) {
	if err := unsupported(spec); err != nil {
		return nil, fmt.Errorf("layer driver does not model %v", err)
	}
	cfg := spec.Platform
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	algoCfg := core.DefaultConfig()
	if spec.AlgoConfig != nil {
		algoCfg = *spec.AlgoConfig
	}
	algo, err := runner.NewAlgorithmManaged(spec.Algorithm, algoCfg, spec.Manager)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.NewHomogeneous(cfg.Nodes, cfg.NodeTemplate)
	if err != nil {
		return nil, err
	}
	d := &driver{
		cfg:           cfg,
		tr:            tr,
		engine:        sim.New(cfg.Seed),
		cluster:       cl,
		lb:            lb.New(cfg.LBPolicy),
		recorder:      simmetrics.NewRecorder(),
		costs:         cost.NewTracker(cfg.Cost),
		replicaSeries: make(map[string]*simmetrics.TimeSeries),
	}
	d.lb.DistributionOverhead = cfg.DistributionOverhead
	timed := timedAlgorithm{Algorithm: algo, tr: tr}
	arbiters := []*monitor.Monitor{}
	if cfg.Zones > 1 {
		p, err := monitor.NewPlane(cl, timed, monitor.PlaneConfig{
			Zones:            cfg.Zones,
			LeaseHeadroomCPU: cfg.ZoneLeaseHeadroomCPU,
			SpilloverZones:   cfg.ZoneSpilloverZones,
			ReadoptAfter:     cfg.ZoneReadoptAfter,
		})
		if err != nil {
			return nil, err
		}
		if err := d.engine.SetShards(cfg.Zones); err != nil {
			return nil, err
		}
		d.plane, d.ctl = p, p
		arbiters = p.Arbiters()
	} else {
		m := monitor.New(cl, timed)
		d.ctl = m
		arbiters = append(arbiters, m)
	}
	for _, m := range arbiters {
		m.StartDelay = cfg.StartDelay
		m.SelfHeal = cfg.SelfHealing
		m.OnRemovalFailure = d.removalFailure
		if cfg.HardeningOff {
			m.Hardening.Enabled = false
		}
	}
	for _, s := range spec.Services {
		pattern, err := s.Load.Pattern()
		if err != nil {
			return nil, err
		}
		if err := d.ctl.AddService(s.Spec, s.Target); err != nil {
			return nil, err
		}
		var gen *loadgen.Generator
		if pattern != nil {
			gen = loadgen.NewGenerator(s.Spec, pattern, &d.ids)
			gen.Poisson = cfg.PoissonArrivals
		}
		d.gens = append(d.gens, gen)
		d.replicaSeries[s.Spec.Name] = &simmetrics.TimeSeries{Name: s.Spec.Name + "-replicas"}
		if err := d.ctl.DeployInitial(s.Spec.Name, d.engine.Now()); err != nil {
			return nil, err
		}
	}
	for _, f := range spec.NodeFailures {
		node := f.Node
		if err := d.engine.Schedule(f.At, func(*sim.Engine) { d.failNode(node) }); err != nil {
			return nil, err
		}
	}
	if err := d.engine.SchedulePeriodic(cfg.Tick, cfg.Tick, d.tick); err != nil {
		return nil, err
	}
	if cfg.MonitorPeriod > 0 {
		if err := d.engine.SchedulePeriodic(cfg.MonitorPeriod, cfg.MonitorPeriod, d.poll); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *driver) recordFailure(service string, class workload.FailureClass) {
	d.tr.begin(recordSpan)
	d.recorder.RecordFailure(service, class)
	d.costs.ObserveFailure()
	d.tr.end()
	d.counts.records++
}

func (d *driver) removalFailure(r *workload.Request) {
	d.recordFailure(r.Service, workload.FailureRemoval)
}

// failNode is platform.World.ScheduleNodeFailure's event.
func (d *driver) failNode(node string) {
	killed, err := d.cluster.RemoveNode(node)
	if err != nil {
		return
	}
	if d.plane != nil {
		d.plane.NoteNodeRemoved(node)
	}
	if !d.cfg.SelfHealing.Enabled {
		d.ctl.DetachNode(node)
	}
	for _, r := range killed {
		d.removalFailure(r)
	}
}

// route is platform.World.route without fault injection. It runs inside
// the arrivals span: append_replicas and lb.route follow one another.
func (d *driver) route(req *workload.Request) {
	req.ExtraLatency += d.cfg.BaseLatency
	now := d.engine.Now()
	tr := d.tr
	tr.next(appendReplicasSpan)
	d.buf = d.ctl.AppendReplicas(d.buf[:0], req.Service)
	tr.next(routeSpan)
	target, err := d.lb.RouteAt(now, req, d.buf)
	if err == nil {
		target.Enqueue(req)
	}
	d.counts.routes++
	if err != nil {
		d.counts.routeFails++
		if errors.Is(err, lb.ErrAllStarting) {
			d.connFail.Starting++
		} else {
			d.connFail.Absent++
		}
		d.recordFailure(req.Service, workload.FailureConnection)
	}
}

// tick is platform.World.tick, its layer calls laid end to end in spans.
func (d *driver) tick(e *sim.Engine) {
	now := e.Now()
	dt := d.cfg.Tick
	tr := d.tr
	tr.begin(arrivalsSpan)
	for _, g := range d.gens {
		if g == nil {
			continue
		}
		reqs := g.Arrivals(now, dt, e.Rand())
		if len(reqs) == 0 {
			continue
		}
		d.counts.generated += uint64(len(reqs))
		for _, req := range reqs {
			d.route(req)
		}
		tr.next(arrivalsSpan)
	}

	tr.next(advanceSpan)
	res := d.cluster.Advance(now, dt)

	tr.next(recordSpan)
	for _, done := range res.Completed {
		r := done.Request
		latency := done.At - r.Arrival + r.ExtraLatency
		if latency < 0 {
			latency = 0
		}
		d.recorder.RecordCompletion(r.Service, latency)
		d.costs.ObserveCompletion(latency)
	}
	for _, r := range res.TimedOut {
		d.recorder.RecordFailure(r.Service, workload.FailureConnection)
		d.costs.ObserveFailure()
	}

	tr.next(machinesSpan)
	active := 0
	for _, node := range d.cluster.Nodes() {
		if len(node.Containers()) > 0 {
			active++
		}
	}
	d.costs.ObserveMachines(active, dt)

	tr.next(sampleSpan)
	d.ctl.Sample()
	tr.end()

	d.counts.completions += uint64(len(res.Completed))
	d.counts.timeouts += uint64(len(res.TimedOut))
	d.counts.records += uint64(len(res.Completed) + len(res.TimedOut))
}

// poll is platform.World.poll without monitor-crash windows or the
// decision journal.
func (d *driver) poll(e *sim.Engine) {
	now := e.Now()
	d.tr.begin(pollSpan)
	d.ctl.Poll(now)
	d.ctl.MaybeCheckpoint(now)
	var usedCPU, capCPU float64
	for _, n := range d.cluster.Nodes() {
		capCPU += n.Capacity().CPU
		for _, c := range n.Containers() {
			usedCPU += c.LastUsage().CPU
		}
	}
	if capCPU > 0 {
		d.utilSeries.Append(now, usedCPU/capCPU)
	}
	for name, ts := range d.replicaSeries {
		ts.Append(now, float64(d.ctl.ReplicaCount(name)))
	}
	d.tr.end()
	d.counts.polls++
}

func (d *driver) inflight() uint64 {
	var n uint64
	for _, node := range d.cluster.Nodes() {
		for _, c := range node.Containers() {
			n += uint64(c.Inflight())
		}
	}
	return n
}

// runtimeDeltas are runtime/metrics readings taken around a run.
type runtimeDeltas struct {
	gcCPU, userCPU float64 // cpu-seconds
	allocBytes     uint64
	gcCycles       uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeDeltas {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeDeltas{gcCPU: f(0), userCPU: f(1), allocBytes: u(2), gcCycles: u(3)}
}

func (r runtimeDeltas) sub(o runtimeDeltas) runtimeDeltas {
	return runtimeDeltas{gcCPU: r.gcCPU - o.gcCPU, userCPU: r.userCPU - o.userCPU,
		allocBytes: r.allocBytes - o.allocBytes, gcCycles: r.gcCycles - o.gcCycles}
}

func (r *runtimeDeltas) add(o runtimeDeltas) {
	r.gcCPU += o.gcCPU
	r.userCPU += o.userCPU
	r.allocBytes += o.allocBytes
	r.gcCycles += o.gcCycles
}

// tracedRun is one document replayed through the layer driver.
type tracedRun struct {
	out     outcome
	counts  layerCounts
	spans   spanTotals
	rt      runtimeDeltas
	stepped time.Duration
	// hostSpeed scales the run's host times to reference-host time.
	hostSpeed float64
}

// runDriver replays one document through the layer driver, one tick at a
// time like runWorld, with every layer call inside a span.
func runDriver(doc []byte, docIndex int, tr *tracer) (tracedRun, error) {
	c, err := compileDoc(doc)
	if err != nil {
		return tracedRun{}, err
	}
	d, err := newDriver(c.spec, tr)
	if err != nil {
		return tracedRun{}, err
	}
	tr.doc = docIndex
	tr.mark = tr.spanTotals
	before := tr.spanTotals
	nodes := uint64(len(d.cluster.Nodes()))

	rt0 := readRuntime()
	start := time.Now()
	for i := 1; i <= c.steps; i++ {
		tr.begin(stepSpan)
		err := d.engine.Run(time.Duration(i) * c.tick)
		tr.end()
		if err != nil {
			return tracedRun{}, err
		}
		if c.pollStep(i) {
			tr.closeWindow(time.Duration(i) * c.tick)
		}
	}
	tr.begin(summarizeSpan)
	sum := d.recorder.Summarize()
	tr.end()
	out := outcome{
		Summary:        sum,
		Actions:        d.ctl.Counts(),
		Recovery:       d.ctl.Recovery(),
		Cost:           d.costs.Report(),
		ConnFail:       d.connFail,
		Clamped:        d.engine.Clamped(),
		PendingRetries: d.ctl.PendingRetries(),
	}
	if d.plane != nil {
		out.Zones = d.plane.ZoneSummaries()
		out.Cross = d.plane.Cross()
	}
	for _, name := range c.names {
		out.Replicas = append(out.Replicas, d.ctl.ReplicaCount(name))
	}
	stepped := time.Since(start)
	rt := readRuntime().sub(rt0)
	tr.closeWindow(c.horizon)

	d.counts.nodeTicks = nodes * uint64(c.steps)
	d.counts.inflightLeft = d.inflight()
	return tracedRun{out: out, counts: d.counts, spans: tr.spanTotals.sub(before), rt: rt,
		stepped: stepped}, nil
}
