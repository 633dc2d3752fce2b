package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/cost"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The disaster-recovery experiment measures the zoned control plane's zone
// fault domains end to end, at the datacenter scale the sharding was built
// for (1,000 nodes / 500 services / 8 zones). Three failure scenarios:
//
//	outage    — one zone's arbiter loses stats AND actions to every node
//	            for a bounded window (the classic zone outage); heals.
//	partition — the same zone loses only the stats direction (a gray
//	            failure: the arbiter rules its nodes dead but control
//	            actions still land); heals.
//	rolling   — two zones die back to back and stay dead; the second
//	            victim hosts a service too large for any single surviving
//	            zone's remaining capacity.
//
// crossed with three recovery variants:
//
//	no-evac — self-healing on, zone evacuation off: a dead zone's services
//	          stay down until the zone heals.
//	evac    — zone evacuation on, no spillover: each evacuated service
//	          must land whole in one surviving zone.
//	spill   — evacuation plus spillover across up to 3 zones.
//
// and three algorithms. The table reports availability (service-seconds
// with a routable replica), time-to-reconverge (first instant every service
// is back at its pre-failure replica count), cross-zone replica
// displacement, and the cost delta against the matching no-evac cell.

// drNodes/drZones/drFillers size the cluster so the rolling scenario's
// acceptance criterion is structural: each zone offers 500 CPU (125
// four-core nodes); fillers hold 4 one-core replicas each (~63 per
// untouched zone → ~248 CPU free), and a mammoth holds 230. The first dead
// zone's mammoth fits a surviving zone whole (230 ≤ 248), but evacuation
// concentrates it there: after wave one no survivor retains more than
// ~200 CPU free (the mammoth's landing zone drops to ~20, and the
// displaced fillers level the rest downward), so the second mammoth can
// only come back split across zones — spillover or bust.
const (
	drNodes           = 1000
	drZones           = 8
	drFillers         = 498
	drMammoths        = 2
	drMammothReplicas = 230
)

// drServices builds the filler fleet and, for the rolling scenario, the
// mammoths. Mammoths are registered first: the plane's fewest-services
// assignment then homes them in zones 0 and 1 — exactly the zones the
// rolling outage kills.
func drServices(fillers, mammoths, mammothReplicas int) []serviceLoad {
	out := make([]serviceLoad, 0, fillers+mammoths)
	for i := 0; i < mammoths; i++ {
		spec := workload.ServiceSpec{
			Name: fmt.Sprintf("mammoth-%d", i), Kind: workload.KindCPUBound,
			CPUPerRequest:         0.45,
			CPUOverheadPerRequest: 0.05,
			MemPerRequest:         2,
			BaselineMemMB:         300,
			InitialReplicaCPU:     1,
			InitialReplicaMemMB:   512,
			MinReplicas:           mammothReplicas,
			MaxReplicas:           mammothReplicas,
			Timeout:               30 * time.Second,
		}
		// N rps × 0.5 CPU/req = N/2 CPU demand: N one-core replicas run at
		// the 0.5 utilization target. The replica count is pinned
		// (min == max) so losing a zone's worth of mammoth can only be
		// repaired by re-placing the replicas somewhere — not by the
		// surviving home growing or vertically squeezing its way back — which
		// is exactly the placement problem spillover exists to solve.
		out = append(out, serviceLoad{spec: spec, target: 0.5, pattern: loadgen.Constant{RPS: float64(mammothReplicas)}})
	}
	for i := 0; i < fillers; i++ {
		spec := workload.ServiceSpec{
			Name: fmt.Sprintf("svc-%03d", i), Kind: workload.KindCPUBound,
			CPUPerRequest:         0.45,
			CPUOverheadPerRequest: 0.05,
			MemPerRequest:         2,
			BaselineMemMB:         300,
			InitialReplicaCPU:     1,
			InitialReplicaMemMB:   512,
			MinReplicas:           2,
			MaxReplicas:           8,
			Timeout:               30 * time.Second,
		}
		// 3.5 rps × 0.5 CPU/req = 1.75 CPU demand → a stable 4 replicas
		// (mid-interval, same reasoning as the mammoths).
		out = append(out, serviceLoad{spec: spec, target: 0.5, pattern: loadgen.Constant{RPS: 3.5}})
	}
	return out
}

// drScenario is one zone failure schedule.
type drScenario struct {
	name     string
	mammoths int
	windows  func(d time.Duration) []faults.Window
}

// drScenarios returns the three failure schedules for a horizon d. The
// single-zone scenarios open at 35% of the horizon and heal after a quarter
// of it (at least 75 s — the detector, evacuation cooldown and re-adoption
// need room at reduced -scale); the rolling outage opens earlier, kills the
// second zone one stagger later, and never heals within the horizon.
func drScenarios() []drScenario {
	single := func(kind faults.Kind, direction string) func(d time.Duration) []faults.Window {
		return func(d time.Duration) []faults.Window {
			from := time.Duration(0.35 * float64(d))
			return []faults.Window{{
				Kind: kind, Target: "0", Direction: direction,
				From: from, To: from + max(d/4, 75*time.Second),
			}}
		}
	}
	return []drScenario{
		{name: "outage", windows: single(faults.KindZoneOutage, "")},
		{name: "partition", windows: single(faults.KindZonePartition, faults.DirectionStats)},
		{name: "rolling", mammoths: drMammoths, windows: func(d time.Duration) []faults.Window {
			first := d / 4
			second := first + max(d/5, 36*time.Second)
			return []faults.Window{
				{Kind: faults.KindZoneOutage, Target: "0", From: first, To: 10 * d},
				{Kind: faults.KindZoneOutage, Target: "1", From: second, To: 10 * d},
			}
		}},
	}
}

// drVariant is one recovery configuration.
type drVariant struct {
	name      string
	evacuate  bool
	spillover int
}

func drVariants() []drVariant {
	return []drVariant{
		{name: "no-evac"},
		{name: "evac", evacuate: true, spillover: 1},
		{name: "spill", evacuate: true, spillover: 3},
	}
}

// DROutcome is one (scenario, variant, algorithm) cell.
type DROutcome struct {
	Scenario  string
	Variant   string
	Algorithm string
	// ReconvergeSeconds is the time from the first zone failure until every
	// service last returned to its pre-failure provisioned capacity (-1:
	// never within the horizon — the cell did not survive).
	ReconvergeSeconds float64
	// AvailabilityPercent is the fraction of service-seconds with at least
	// one routable replica.
	AvailabilityPercent float64
	// Displaced / Spillover count replicas carried across a zone boundary
	// by evacuation, and the subset placed beyond the primary target zone.
	Displaced uint64
	Spillover uint64
	// CostDelta is this cell's total cost minus the matching no-evac
	// cell's — what the recovery paid for in machine-hours and penalties.
	CostDelta float64
	Summary   metrics.Summary
	Recovery  monitor.RecoveryCounts
	Cost      cost.Report
}

// DRResult is the material behind the disaster-recovery comparison, keyed
// by drName.
type DRResult = GridResult[DROutcome]

// drProbe is the reconvergence criterion of the DR experiment. Unlike the
// recovery probe it judges provisioned CPU rather than replica count, and
// derives the failure instant from the spec's first zone fault window
// rather than a churn schedule.
type drProbe struct {
	reconvergence
	pre      map[string]float64
	degraded bool
	// short and deep flag, for the current sample, a service below the
	// restored and the degraded bar respectively.
	short, deep bool
}

// The reconvergence bars form a Schmitt trigger over each service's
// provisioned CPU, measured against a low-water pre-failure baseline (the
// minimum provisioned capacity observed over the later half of the pre-fail
// window). Capacity, not replica count, because the re-homed zone's
// algorithm is free to rebuild the same capacity out of fewer, larger
// replicas. A service arms the probe when it drops below 80% of baseline —
// only a real zone loss cuts that deep — and counts as restored at 95%; the
// gap keeps ordinary vertical/horizontal re-shaping jitter from re-arming a
// cell that has genuinely recovered.
const (
	drDegradedFraction = 0.80
	drRestoredFraction = 0.95
)

func newDRProbe(spec runner.RunSpec) criterion {
	p := &drProbe{reconvergence: reconvergence{failAt: -1, at: -1}, pre: make(map[string]float64)}
	for _, fw := range spec.Platform.Faults.Windows {
		if fw.Kind != faults.KindZoneOutage && fw.Kind != faults.KindZonePartition {
			continue
		}
		if p.failAt < 0 || fw.From < p.failAt {
			p.failAt = fw.From
		}
	}
	return p
}

func (p *drProbe) observe(now time.Duration, service string, replicas []*container.Container) {
	var cpu float64
	for _, c := range replicas {
		cpu += c.Alloc.CPU
	}
	switch {
	case p.before(now):
		// Low-water baseline over the settled half of the pre-fail window
		// (the earlier half is deployment ramp-up).
		if now >= p.failAt/2 {
			if v, ok := p.pre[service]; !ok || cpu < v {
				p.pre[service] = cpu
			}
		}
	case cpu < drDegradedFraction*p.pre[service]:
		p.short = true
		p.deep = true
		p.degraded = true
	case cpu < drRestoredFraction*p.pre[service]:
		p.short = true
	}
}

func (p *drProbe) settle(now time.Duration) {
	if p.before(now) {
		return
	}
	// The detector takes several poll periods to excise a dead zone's
	// replicas, so the first post-failure samples still show pre-failure
	// capacity; reconvergence only counts once degradation has actually
	// been observed. A later failure wave (the rolling scenario) re-arms
	// the probe: the reported instant is the LAST return to pre-failure
	// capacity, so a cell that recovers from wave one but not wave two
	// reads as never reconverged. Only a deep dip (below the arming
	// threshold) re-arms; shallow jitter inside the hysteresis band
	// neither latches nor resets.
	switch {
	case !p.short && p.degraded && p.at < 0:
		p.at = now
	case p.deep:
		p.at = -1
	}
	p.short, p.deep = false, false
}

// HookDRProbe is the registered runner hook attaching the availability
// sampler with the zone disaster-recovery probe; its finalizer reports
// Extra["reconvergeSeconds"] (-1: never) and Extra["availabilityPercent"].
const HookDRProbe = "dr-probe"

func init() { registerAvailabilityHook(HookDRProbe, newDRProbe) }

// drCell parameterises one DR run.
type drCell struct {
	scenario  drScenario
	variant   drVariant
	algorithm string
}

// drName is the spec name (and result key) of one DR cell.
func drName(scenario, variant, algorithm string) string {
	return fmt.Sprintf("dr/%s-%s-%s", scenario, variant, algorithm)
}

func (c drCell) compile(nodes, zones, fillers, mammothReplicas int, opts Options) runner.RunSpec {
	d := macroDuration(opts)
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.Nodes = nodes
	cfg.Zones = zones
	cfg.SelfHealing = monitor.DefaultSelfHealing()
	cfg.EvacuateZones = c.variant.evacuate
	cfg.ZoneSpilloverZones = c.variant.spillover
	cfg.Faults = faults.Config{
		Seed:    opts.Seed + 3000,
		Windows: c.scenario.windows(d),
	}
	spec := runner.RunSpec{
		Name:      drName(c.scenario.name, c.variant.name, c.algorithm),
		Label:     fmt.Sprintf("%s %s %s", c.scenario.name, c.variant.name, c.algorithm),
		Seed:      opts.Seed,
		Platform:  cfg,
		Algorithm: c.algorithm,
		Duration:  d,
		Hooks:     []string{HookDRProbe},
	}
	spec.Services = serviceRuns(drServices(fillers, c.scenario.mammoths, mammothReplicas))
	return spec
}

// runDRSized executes the DR grid on a cluster of the given size — the full
// pinned grid for RunDR, a reduced one for the smoke tests.
func runDRSized(opts Options, nodes, zones, fillers, mammothReplicas int, algorithms []string) (*DRResult, error) {
	opts = opts.scaled()
	var cells []drCell
	for _, sc := range drScenarios() {
		for _, v := range drVariants() {
			for _, a := range algorithms {
				cells = append(cells, drCell{scenario: sc, variant: v, algorithm: a})
			}
		}
	}
	res, err := grid[drCell, DROutcome]{
		title: "Disaster recovery: zone outage, evacuation and spillover",
		columns: []string{"scenario", "variant", "algorithm", "reconverge", "avail %",
			"failed %", "displaced", "spillover", "cost Δ"},
		compile: func(c drCell) runner.RunSpec {
			return c.compile(nodes, zones, fillers, mammothReplicas, opts)
		},
		fold: func(c drCell, r runner.Result) DROutcome {
			o := DROutcome{
				Scenario:            c.scenario.name,
				Variant:             c.variant.name,
				Algorithm:           c.algorithm,
				ReconvergeSeconds:   r.Extra["reconvergeSeconds"],
				AvailabilityPercent: r.Extra["availabilityPercent"],
				Summary:             r.Summary,
				Recovery:            r.Recovery,
				Cost:                r.Cost,
			}
			if r.ZoneEvac != nil {
				o.Displaced = r.ZoneEvac.ReplicasDisplaced
				o.Spillover = r.ZoneEvac.SpilloverPlacements
			}
			return o
		},
		row: func(o *DROutcome) []string {
			return []string{
				o.Scenario,
				o.Variant,
				o.Algorithm,
				fmtSeconds(o.ReconvergeSeconds),
				fmt.Sprintf("%.2f", o.AvailabilityPercent),
				fmt.Sprintf("%.2f", o.Summary.FailedPercent()),
				fmt.Sprintf("%d", o.Displaced),
				fmt.Sprintf("%d", o.Spillover),
				fmt.Sprintf("%+.2f", o.CostDelta),
			}
		},
	}.run(cells, opts)
	if err != nil {
		return nil, err
	}
	// Cost deltas against the matching no-evac cell, computable only once
	// every cell is in.
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if base := res.Outcome(drName(o.Scenario, "no-evac", o.Algorithm)); base != nil {
			o.CostDelta = o.Cost.TotalCost - base.Cost.TotalCost
		}
	}
	return res, nil
}

// RunDR runs the zone disaster-recovery grid at the pinned scale — 1,000
// nodes, ~500 services, 8 zones — under {outage, partition, rolling} ×
// {no-evac, evac, spill} × 3 algorithms (hyscale-bench -exp dr).
func RunDR(opts Options) (*DRResult, error) {
	return runDRSized(opts, drNodes, drZones, drFillers, drMammothReplicas,
		[]string{"kubernetes", "hybrid", "hybridmem"})
}
