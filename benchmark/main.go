// Command benchmark is the repository's performance benchmark. It generates
// a workload's scenario JSON documents from a seed, runs them through
// scenario.Parse, Compile and runner.Build, steps each World one physics
// tick at a time, and prints the end-to-end metrics; with -trace 1 it also
// replays the documents through a layer driver that times every call into a
// simulator layer and prints the per-layer metrics. See README.md.
//
//	go run . -workload dc-1k -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricVal is one printed metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: churn-600n|dc-1k|dc-5k-16z|paper-fig7")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "how long to measure, in seconds")
		trace    = flag.Int("trace", 0, "1 replays the workload through the traced layer driver")
		spansDir = flag.String("spans-dir", "", "traced mode: write the first pass's spans as JSON lines into this directory")
		jsonOut  = flag.String("write-json", "", "write the workload's scenario documents into this directory and exit")
	)
	flag.Parse()
	// The simulator is single-threaded. One P keeps the garbage collector's
	// work on the measured thread instead of a second core that neighbouring
	// processes share, which at two Ps made rates swing by a quarter from
	// run to run.
	runtime.GOMAXPROCS(1)
	if err := run(os.Stdout, *name, *seed, *seconds, *trace, *spansDir, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed int64, seconds float64, trace int, spansDir, jsonOut string) error {
	w, err := generate(name, seed)
	if err != nil {
		return err
	}
	if jsonOut != "" {
		return writeDocs(jsonOut, w)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	spansOut := ""
	if trace == 1 && spansDir != "" {
		spansOut = filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d documents=%d GOMAXPROCS=%d %s\n",
		w.Name, seed, len(w.Docs), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := measure(stdout, w, time.Duration(seconds*float64(time.Second)), trace == 1, spansOut)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// measure runs one workload for the budget and returns the result line:
// the end-to-end metrics, or with traced the per-layer ones. A failed check
// marks the result incorrect and every request of the run failed.
func measure(stdout io.Writer, w docSet, budget time.Duration, traced bool, spansOut string) (result, error) {
	var (
		res      result
		checkErr error
		err      error
	)
	if traced {
		res, checkErr, err = tracedRuns(stdout, w, budget, spansOut)
	} else {
		res, checkErr, err = untracedRuns(stdout, w, budget)
	}
	if err != nil {
		return result{}, err
	}
	if checkErr != nil {
		fmt.Fprintf(stdout, "CHECK FAILED: %v\n", checkErr)
		res.Correct = false
		res.Failed = res.Attempted
	}
	return res, nil
}

func writeDocs(dir string, w docSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, d := range w.Docs {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.Name, i))
		if err := os.WriteFile(path, append(d, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// iteration is one pass over every document of a workload.
type iteration []simRun

func (it iteration) outcomes() []outcome {
	outs := make([]outcome, len(it))
	for i, r := range it {
		outs[i] = r.out
	}
	return outs
}

func (it iteration) requests() uint64 {
	var n uint64
	for _, r := range it {
		n += r.out.Summary.Requests
	}
	return n
}

// passStats are one pass's host-time totals, raw and at reference-host
// speed.
type passStats struct {
	horizon             time.Duration
	stepped, steppedRef time.Duration
	setup, setupRef     time.Duration
}

func (p passStats) rate() float64    { return p.horizon.Seconds() / p.steppedRef.Seconds() }
func (p passStats) rawRate() float64 { return p.horizon.Seconds() / p.stepped.Seconds() }
func (p passStats) speed() float64   { return p.steppedRef.Seconds() / p.stepped.Seconds() }

// statsOf totals one pass and adds its ticks to the run's histograms.
func statsOf(it iteration, ticks, refTicks *tickHistogram) passStats {
	var p passStats
	for _, r := range it {
		p.horizon += r.horizon
		p.stepped += r.stepped
		p.steppedRef += r.steppedRef
		p.setup += r.setup()
		p.setupRef += r.setupRef
		for i := range r.ticks {
			ticks.add(r.ticks[i])
			refTicks.add(r.refTicks[i])
		}
	}
	return p
}

// simP99 is the largest simulated request p99 among the documents, in ms.
// On paper-fig7 that is a memory-blind hybrid run's swap-bound tail, which
// holds within a few percent across seeds; the other runs' p99s, and so
// their mean, jump between regimes as the seed moves a burst.
func (it iteration) simP99() float64 {
	var p99 time.Duration
	for _, r := range it {
		p99 = max(p99, r.out.Summary.P99Latency)
	}
	return float64(p99) / float64(time.Millisecond)
}

func runIteration(w docSet, heap *heapSampler, cal *calibrator) (iteration, error) {
	it := make(iteration, 0, len(w.Docs))
	for i, doc := range w.Docs {
		r, err := runWorld(doc, heap, cal)
		if err != nil {
			return nil, fmt.Errorf("%s document %d: %w", w.Name, i, err)
		}
		it = append(it, r)
	}
	// Drop this pass's worlds before the next one is built, so set-up does
	// not pay for collecting them.
	runtime.GC()
	return it, nil
}

// runTracedIteration replays every document through the layer driver. The
// calibration kernel runs around each document, so its span times can be
// read in reference-host time too.
func runTracedIteration(w docSet, tr *tracer, cal *calibrator) ([]tracedRun, error) {
	out := make([]tracedRun, 0, len(w.Docs))
	k := cal.measure()
	for i, doc := range w.Docs {
		r, err := runDriver(doc, i, tr)
		if err != nil {
			return nil, fmt.Errorf("%s document %d (layer driver): %w", w.Name, i, err)
		}
		next := cal.measure()
		r.hostSpeed = speed(k, next)
		k = next
		out = append(out, r)
	}
	runtime.GC()
	return out, nil
}

// checkDeterminism requires every pass of one invocation to produce the
// same digest, and returns it.
func checkDeterminism(its []iteration) (string, error) {
	first, err := digest(its[0].outcomes())
	if err != nil {
		return "", err
	}
	for i, it := range its[1:] {
		d, err := digest(it.outcomes())
		if err != nil {
			return "", err
		}
		if d != first {
			return first, fmt.Errorf("determinism: pass %d digest %s != pass 0 digest %s", i+1, d, first)
		}
	}
	return first, nil
}

// checkFidelity holds the layer driver to the World: identical outcomes for
// every document, and request conservation in the traced run.
func checkFidelity(world iteration, traced []tracedRun) error {
	for i := range world {
		if err := diffOutcome(world[i].out, traced[i].out); err != nil {
			return fmt.Errorf("fidelity: document %d: %w", i, err)
		}
		c, s := traced[i].counts, traced[i].out.Summary
		if c.generated != s.Requests+c.inflightLeft {
			return fmt.Errorf("conservation: document %d: loadgen handed out %d requests, but %d resolved + %d in flight = %d",
				i, c.generated, s.Requests, c.inflightLeft, s.Requests+c.inflightLeft)
		}
	}
	return nil
}

func diffOutcome(world, traced outcome) error {
	wv, tv := reflect.ValueOf(world), reflect.ValueOf(traced)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), tv.Field(i).Interface()) {
			return fmt.Errorf("%s differs: world %+v, layer driver %+v",
				wv.Type().Field(i).Name, wv.Field(i).Interface(), tv.Field(i).Interface())
		}
	}
	return nil
}

// measureLoop runs passes until the budget is spent, and at least min.
func measureLoop(budget time.Duration, min int, pass func() error) error {
	start := time.Now()
	for n := 0; n < min || time.Since(start) < budget; n++ {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}

// untracedRuns measures the end-to-end metrics: a closed loop of passes over
// the workload through the program's own path, then one layer-driver pass
// for the fidelity gate.
func untracedRuns(stdout io.Writer, w docSet, budget time.Duration) (result, error, error) {
	var (
		its            []iteration
		stats          []passStats
		ticks, refTick tickHistogram
		heap           = newHeapSampler()
		cal            = newCalibrator()
	)
	err := measureLoop(budget, 2, func() error {
		it, err := runIteration(w, heap, cal)
		if err != nil {
			return err
		}
		stats = append(stats, statsOf(it, &ticks, &refTick))
		for i := range it {
			// Keep the harness's own heap flat across passes.
			it[i].ticks, it[i].refTicks = nil, nil
		}
		its = append(its, it)
		return nil
	})
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: true, Metrics: map[string]metricVal{}}
	var total passStats
	var rates, rawRates, speeds, setups []float64
	for i, it := range its {
		res.Attempted += it.requests()
		p := stats[i]
		total.horizon += p.horizon
		total.steppedRef += p.steppedRef
		rates, rawRates, speeds = append(rates, p.rate()), append(rawRates, p.rawRate()), append(speeds, p.speed())
		setups = append(setups, p.setupRef.Seconds())
	}
	// Rate and tick p99 pool every pass of the run: more samples than any
	// one pass, and the median would keep only the middle pass's noise.
	p99, beyond := refTick.quantile(0.99)
	res.Metrics["sim_s_per_wall_s"] = metricVal{total.rate(), "sim-s/s"}
	res.Metrics["tick_p99_ms"] = metricVal{p99, "ms"}
	res.Metrics["setup_s"] = metricVal{median(setups), "s"}
	res.Metrics["peak_heap_mb"] = metricVal{float64(heap.peak) / (1 << 20), "MB"}
	res.Metrics["sim_p99_latency_ms"] = metricVal{its[0].simP99(), "ms"}

	rawP99, _ := ticks.quantile(0.99)
	tickMedian, _ := refTick.quantile(0.5)
	fmt.Fprintf(stdout, "passes=%d (reference-host figures: host times scaled by the calibration kernel, see README.md)\n", len(its))
	fmt.Fprintf(stdout, "sim_s_per_wall_s per pass: %s\n  raw: %s\n  raw in order: %s\n  host speed in order: %s\n",
		quartiles(rates), quartiles(rawRates), inOrder(rawRates), inOrder(speeds))
	fmt.Fprintf(stdout, "ticks: median=%.4f ms p99=%.4f ms (raw p99 %.4f ms), samples=%d, beyond the p99=%d\n",
		tickMedian, p99, rawP99, refTick.n, beyond)
	fmt.Fprintf(stdout, "setup_s per pass: %s\n", quartiles(setups))
	for i, r := range its[0] {
		s := r.out.Summary
		fmt.Fprintf(stdout, "simulated document %d: requests=%d completed=%d removal-failed=%d connection-failed=%d p99=%v actions=%+v\n",
			i, s.Requests, s.Completed, s.RemovalFailures, s.ConnectionFailures, s.P99Latency, r.out.Actions)
	}

	d, checkErr := checkDeterminism(its)
	if checkErr == nil {
		var tr tracer
		var traced []tracedRun
		traced, err = runTracedIteration(w, &tr, cal)
		if err != nil {
			return result{}, nil, err
		}
		checkErr = checkFidelity(its[0], traced)
	}
	fmt.Fprintf(stdout, "digest %s: %s (%d passes)\n", w.Name, d, len(its))
	if checkErr == nil {
		fmt.Fprintln(stdout, "checks: determinism ok, fidelity ok, conservation ok")
	}
	return res, checkErr, nil
}

// tracedRuns measures the per-layer metrics: passes alternate the program's own
// path (untraced, for the overhead baseline and the set-up layers) with the
// traced layer driver.
func tracedRuns(stdout io.Writer, w docSet, budget time.Duration, spansOut string) (result, error, error) {
	var (
		its     []iteration
		tis     [][]tracedRun
		heap    = newHeapSampler()
		cal     = newCalibrator()
		tr      tracer
		checkEr error
	)
	tr.keep = spansOut != ""
	err := measureLoop(budget, 1, func() error {
		it, err := runIteration(w, heap, cal)
		if err != nil {
			return err
		}
		for i := range it {
			it[i].ticks, it[i].refTicks = nil, nil
		}
		its = append(its, it)
		ti, err := runTracedIteration(w, &tr, cal)
		if err != nil {
			return err
		}
		tis = append(tis, ti)
		tr.keep = false // spans of the first pass only: they are per period, not per call
		if checkEr == nil {
			checkEr = checkFidelity(it, ti)
		}
		return nil
	})
	if err != nil {
		return result{}, nil, err
	}
	d, detErr := checkDeterminism(its)
	if checkEr == nil {
		checkEr = detErr
	}
	res := result{Correct: true, Metrics: map[string]metricVal{}}
	for _, it := range its {
		res.Attempted += it.requests()
	}
	m := layerMetrics(stdout, its, tis)
	for k, v := range m {
		res.Metrics[k] = v
	}
	fmt.Fprintf(stdout, "digest %s: %s (%d passes)\n", w.Name, d, len(its))
	if checkEr == nil {
		fmt.Fprintln(stdout, "checks: determinism ok, fidelity ok, conservation ok")
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, tr.windows); err != nil {
			return result{}, nil, err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.windows), spansOut)
	}
	return res, checkEr, nil
}

// layerMetrics turns the traced passes into the per-layer metrics: times and
// counts per pass (the mean over passes), plus ratios taken where the work
// happens.
func layerMetrics(stdout io.Writer, its []iteration, tis [][]tracedRun) map[string]metricVal {
	var (
		spans   spanTotals
		counts  layerCounts
		rt      runtimeDeltas
		stepped time.Duration
		base    time.Duration
		parse   time.Duration
		build   time.Duration
	)
	var rawStepped time.Duration
	for _, ti := range tis {
		for _, r := range ti {
			spans.add(r.spans.scaled(r.hostSpeed))
			counts.add(r.counts)
			rt.add(r.rt)
			stepped += scale(r.stepped, r.hostSpeed)
			rawStepped += r.stepped
		}
	}
	for _, it := range its {
		for _, r := range it {
			f := float64(r.setupRef) / float64(r.setup())
			base += r.steppedRef
			parse += scale(r.parse, f)
			build += scale(r.build, f)
		}
	}
	passes := float64(len(tis))
	ms := func(d time.Duration) metricVal {
		return metricVal{float64(d) / float64(time.Millisecond) / passes, "ms"}
	}
	count := func(n uint64) metricVal { return metricVal{float64(n) / passes, "count"} }
	ratio := func(a, b uint64) metricVal {
		if b == 0 {
			return metricVal{0, "ratio"}
		}
		return metricVal{float64(a) / float64(b), "ratio"}
	}
	perOp := func(d time.Duration, n uint64) metricVal {
		if n == 0 {
			return metricVal{0, "ns"}
		}
		return metricVal{float64(d) / float64(n), "ns"}
	}
	var layerSelf time.Duration
	for i := 0; i < numSpans; i++ {
		if i != stepSpan {
			layerSelf += spans.self[i]
		}
	}
	simSelf := stepped - layerSelf
	var actions, placeFails, retries, outs uint64
	for _, ti := range tis {
		for _, r := range ti {
			a := r.out.Actions
			actions += a.ScaleOuts + a.ScaleIns + a.Vertical
			placeFails += a.PlacementFailures
			retries += a.Retries
			outs += a.ScaleOuts
		}
	}
	m := map[string]metricVal{
		"scenario.parse_ms":               metricVal{float64(parse) / float64(time.Millisecond) / float64(len(its)), "ms"},
		"runner.build_ms":                 metricVal{float64(build) / float64(time.Millisecond) / float64(len(its)), "ms"},
		"loadgen.arrivals_ms":             ms(spans.self[arrivalsSpan]),
		"loadgen.requests":                count(counts.generated),
		"loadgen.ns_per_request":          perOp(spans.self[arrivalsSpan], counts.generated),
		"monitor.append_replicas_ms":      ms(spans.self[appendReplicasSpan]),
		"lb.route_ms":                     ms(spans.self[routeSpan]),
		"lb.routes":                       count(counts.routes),
		"lb.route_failure_ratio":          ratio(counts.routeFails, counts.routes),
		"cluster.advance_ms":              ms(spans.self[advanceSpan]),
		"cluster.ns_per_node_tick":        perOp(spans.self[advanceSpan], counts.nodeTicks),
		"cluster.completions":             count(counts.completions),
		"cluster.timeouts":                count(counts.timeouts),
		"metrics.record_ms":               ms(spans.self[recordSpan]),
		"metrics.ns_per_record":           perOp(spans.self[recordSpan], counts.records),
		"cost.observe_machines_ms":        ms(spans.self[machinesSpan]),
		"monitor.sample_ms":               ms(spans.self[sampleSpan]),
		"monitor.poll_self_ms":            ms(spans.self[pollSpan]),
		"core.decide_ms":                  ms(spans.self[decideSpan]),
		"monitor.polls":                   count(counts.polls),
		"monitor.actions":                 count(actions),
		"monitor.placement_failure_ratio": ratio(placeFails, outs+placeFails),
		"monitor.retries":                 count(retries),
		"metrics.summarize_ms":            ms(spans.self[summarizeSpan]),
		"sim.self_ms":                     ms(simSelf),
		"runtime.gc_cpu_pct":              metricVal{100 * rt.gcCPU / math.Max(rt.gcCPU+rt.userCPU, 1e-12), "%"},
		"runtime.alloc_bytes_per_request": metricVal{float64(rt.allocBytes) / math.Max(float64(counts.generated), 1), "B/request"},
		"runtime.gc_cycles":               count(rt.gcCycles),
		"trace.overhead_pct":              metricVal{100 * (float64(stepped)/float64(base) - 1), "%"},
	}

	// Where the traced stepped time went, largest first.
	type share struct {
		name string
		d    time.Duration
	}
	var shares []share
	for i := 0; i < numSpans; i++ {
		if i != stepSpan {
			shares = append(shares, share{spanNames[i], spans.self[i]})
		}
	}
	shares = append(shares, share{"sim.self", simSelf})
	sort.Slice(shares, func(a, b int) bool { return shares[a].d > shares[b].d })
	fmt.Fprintf(stdout, "traced passes=%d stepped-wall=%v (untraced %v), reference-host; layer self times + sim.self = %v\n",
		len(tis), stepped.Round(time.Millisecond), base.Round(time.Millisecond), (layerSelf + simSelf).Round(time.Millisecond))
	fmt.Fprintf(stdout, "inside spans: %.1f%% of stepped wall (sim.step self %.1f%%)\n",
		100*float64(layerSelf+spans.self[stepSpan])/float64(stepped), 100*float64(spans.self[stepSpan])/float64(stepped))
	read := clockReadCost()
	fmt.Fprintf(stdout, "tracer: %d clock reads per pass at ~%v each, ~%.1f%% of traced stepped wall\n",
		spans.reads/uint64(len(tis)), read, 100*float64(spans.reads)*float64(read)/float64(rawStepped))
	for _, s := range shares {
		fmt.Fprintf(stdout, "  share %-26s %6.2f%%  %v\n", s.name, 100*float64(s.d)/float64(stepped), (s.d / time.Duration(len(tis))).Round(time.Microsecond))
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func inOrder(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}

// quartiles renders the median and quartiles of per-pass values.
func quartiles(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return fmt.Sprintf("q1=%.4f median=%.4f q3=%.4f n=%d", q(0.25), q(0.5), q(0.75), len(s))
}
