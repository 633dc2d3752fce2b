package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"hyscale/internal/cost"
	simmetrics "hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/scenario"
)

// outcome is every simulated statistic one simulation produces. The digest
// hashes it, and the fidelity gate compares the layer driver's outcome with
// the World's field by field.
type outcome struct {
	Summary        simmetrics.Summary
	Actions        monitor.ActionCounts
	Recovery       monitor.RecoveryCounts
	Cost           cost.Report
	ConnFail       platform.ConnFailureBreakdown
	Clamped        uint64
	PendingRetries int
	Zones          []monitor.ZoneSummary
	Cross          monitor.CrossZoneCounts
	// Replicas is each service's final replica count, in document order.
	Replicas []int
}

// digest folds outcomes into one FNV-64a hash. JSON encoding is canonical
// for these types (fixed field order, shortest round-trip floats).
func digest(outs []outcome) (string, error) {
	h := fnv.New64a()
	for _, o := range outs {
		b, err := json.Marshal(o)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// compiled is a parsed and compiled scenario document.
type compiled struct {
	spec    runner.RunSpec
	tick    time.Duration
	period  time.Duration
	steps   int
	parse   time.Duration // scenario.Parse + Compile
	names   []string      // service names in document order
	horizon time.Duration
}

func compileDoc(doc []byte) (compiled, error) {
	t0 := time.Now()
	sc, err := scenario.Parse(bytes.NewReader(doc))
	if err != nil {
		return compiled{}, err
	}
	spec, err := sc.Compile()
	if err != nil {
		return compiled{}, err
	}
	c := compiled{spec: spec, parse: time.Since(t0), horizon: spec.Duration,
		tick: spec.Platform.Tick, period: spec.Platform.MonitorPeriod}
	if c.tick <= 0 || c.horizon%c.tick != 0 {
		return compiled{}, fmt.Errorf("horizon %v is not a whole number of %v ticks", c.horizon, c.tick)
	}
	c.steps = int(c.horizon / c.tick)
	for _, s := range spec.Services {
		c.names = append(c.names, s.Spec.Name)
	}
	return c, nil
}

// pollStep reports whether step i (1-based) ends on a monitor-period
// boundary.
func (c compiled) pollStep(i int) bool {
	return c.period > 0 && (time.Duration(i)*c.tick)%c.period == 0
}

// simRun is one simulated document's measurements. Host times come raw
// and scaled to reference-host time (see calib.go).
type simRun struct {
	out      outcome
	parse    time.Duration // scenario.Parse + Compile
	build    time.Duration // runner.Build
	setupRef time.Duration
	horizon  time.Duration
	// stepped is host time from the first tick through the final summary
	// calls, without the calibration kernel's runs.
	stepped, steppedRef time.Duration
	// ticks and refTicks hold the host time of every stepped tick.
	ticks, refTicks []time.Duration
}

func (r simRun) setup() time.Duration { return r.parse + r.build }

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// heapSampler tracks the largest live heap seen at the horizon of a
// simulation: the recorder keeps every latency, so the live heap grows
// through a run and peaks at its end.
type heapSampler struct {
	sample [1]metrics.Sample
	peak   uint64
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.sample[0].Name = "/gc/heap/live:bytes"
	return h
}

// settle collects garbage and samples the live heap. It is called at the
// horizon with the world still reachable, after the timed window closes:
// the live-heap figure a background cycle leaves behind counts whatever was
// allocated during its mark phase, which made the peak jump by a fifth from
// run to run, whereas a forced cycle reads the world's exact size.
func (h *heapSampler) settle() {
	runtime.GC()
	metrics.Read(h.sample[:])
	if v := h.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
		h.peak = v.Uint64()
	}
}

// runWorld simulates one document through the program's own path: parse,
// compile, runner.Build, then World.Run one tick at a time.
func runWorld(doc []byte, heap *heapSampler, cal *calibrator) (simRun, error) {
	k0 := cal.measure()
	c, err := compileDoc(doc)
	if err != nil {
		return simRun{}, err
	}
	t0 := time.Now()
	w, _, err := runner.Build(c.spec)
	if err != nil {
		return simRun{}, err
	}
	run := simRun{parse: c.parse, build: time.Since(t0), horizon: c.horizon,
		ticks: make([]time.Duration, 0, c.steps), refTicks: make([]time.Duration, 0, c.steps)}
	k := cal.measure()
	run.setupRef = scale(run.setup(), speed(k0, k))

	// closeInterval scales the ticks since the last calibration point.
	closeInterval := func(f float64) {
		for _, t := range run.ticks[len(run.refTicks):] {
			run.refTicks = append(run.refTicks, scale(t, f))
		}
	}
	prev := time.Now()
	calibrated := prev
	for i := 1; i <= c.steps; i++ {
		if err := w.Run(time.Duration(i) * c.tick); err != nil {
			return simRun{}, err
		}
		now := time.Now()
		run.ticks = append(run.ticks, now.Sub(prev))
		prev = now
		if now.Sub(calibrated) >= calibrationEvery && i < c.steps {
			next := cal.measure()
			closeInterval(speed(k, next))
			k = next
			prev = time.Now()
			calibrated = prev
		}
	}
	ctl := w.Control()
	run.out = outcome{
		Summary:        w.Summary(),
		Actions:        ctl.Counts(),
		Recovery:       ctl.Recovery(),
		Cost:           w.CostReport(),
		ConnFail:       w.ConnFailures(),
		Clamped:        w.ClampedEvents(),
		PendingRetries: ctl.PendingRetries(),
		Zones:          w.ZoneSummaries(),
		Cross:          w.CrossZone(),
	}
	for _, name := range c.names {
		run.out.Replicas = append(run.out.Replicas, ctl.ReplicaCount(name))
	}
	summary := time.Since(prev)
	f := speed(k, cal.measure())
	closeInterval(f)
	for i := range run.ticks {
		run.stepped += run.ticks[i]
		run.steppedRef += run.refTicks[i]
	}
	run.stepped += summary
	run.steppedRef += scale(summary, f)
	heap.settle()
	runtime.KeepAlive(w)
	return run, nil
}

// tickHistogram counts tick times in buckets 0.5% wide from 100 ns up, so a
// run's tick percentiles pool every pass while the harness's memory stays
// the same however many passes run.
type tickHistogram struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histBuckets = 4200 // 100 ns × 1.005^4200 ≈ 130 s
	histMin     = 100 * time.Nanosecond
)

var histStep = math.Log(1.005)

func (h *tickHistogram) add(d time.Duration) {
	i := 0
	if d > histMin {
		i = min(int(math.Log(float64(d)/float64(histMin))/histStep), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile in ms (the bucket's middle, nearest rank)
// and how many samples lie in higher buckets.
func (h *tickHistogram) quantile(q float64) (float64, uint64) {
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank && c > 0 {
			mid := float64(histMin) * math.Exp((float64(i)+0.5)*histStep)
			return mid / float64(time.Millisecond), h.n - seen
		}
	}
	return 0, 0
}
