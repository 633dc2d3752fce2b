package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Layers the tracer times. Each is a span around calls into one package of
// the simulator; stepSpan is the root span of one stepped physics tick.
const (
	stepSpan = iota
	arrivalsSpan
	appendReplicasSpan
	routeSpan
	advanceSpan
	recordSpan
	machinesSpan
	sampleSpan
	pollSpan
	decideSpan
	summarizeSpan
	numSpans
)

var spanNames = [numSpans]string{
	stepSpan:           "sim.step",
	arrivalsSpan:       "loadgen.arrivals",
	appendReplicasSpan: "monitor.append_replicas",
	routeSpan:          "lb.route",
	advanceSpan:        "cluster.advance",
	recordSpan:         "metrics.record",
	machinesSpan:       "cost.observe_machines",
	sampleSpan:         "monitor.sample",
	pollSpan:           "monitor.poll",
	decideSpan:         "core.decide",
	summarizeSpan:      "metrics.summarize",
}

// spanParents names the span that causes each span: calls into a layer nest
// under the step that made them, core.decide under monitor.poll.
var spanParents = [numSpans]int{
	stepSpan:           -1,
	arrivalsSpan:       stepSpan,
	appendReplicasSpan: stepSpan,
	routeSpan:          stepSpan,
	advanceSpan:        stepSpan,
	recordSpan:         stepSpan,
	machinesSpan:       stepSpan,
	sampleSpan:         stepSpan,
	pollSpan:           stepSpan,
	decideSpan:         pollSpan,
	summarizeSpan:      -1,
}

// spanTotals accumulates per-layer self time.
type spanTotals struct {
	self  [numSpans]time.Duration
	reads uint64 // clock reads taken, for the tracer's own cost
}

func (s *spanTotals) add(o spanTotals) {
	for i := range s.self {
		s.self[i] += o.self[i]
	}
	s.reads += o.reads
}

func (s spanTotals) sub(o spanTotals) spanTotals {
	for i := range s.self {
		s.self[i] -= o.self[i]
	}
	s.reads -= o.reads
	return s
}

func (s spanTotals) scaled(f float64) spanTotals {
	for i := range s.self {
		s.self[i] = scale(s.self[i], f)
	}
	return s
}

// windowSpan is one layer's spans over one monitor period, merged: the
// per-call spans of the hot layers number in the millions per run, so they
// are folded into their period before they are kept.
type windowSpan struct {
	Doc     int    `json:"doc"`
	EndSimS int64  `json:"endSimS"` // simulated second the period ends at
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	SelfNs  int64  `json:"selfNs"`
}

// tracer attributes host time to the span on top of a fixed-depth stack.
// Every clock read closes the interval since the previous one and charges it
// to the innermost open span, so self time is measured directly: a span's
// duration minus the time its children cover. Spans are laid end to end
// where calls follow each other (next), so one read serves as the end of
// one span and the start of the next; the few instructions between two
// calls are charged to the earlier one. Nothing is allocated per call.
type tracer struct {
	stack [4]int
	depth int
	last  time.Time
	spanTotals

	keep    bool // whether window spans are recorded
	doc     int
	mark    spanTotals
	windows []windowSpan
}

func (t *tracer) lap() {
	now := time.Now()
	if t.depth > 0 {
		t.self[t.stack[t.depth-1]] += now.Sub(t.last)
	}
	t.last = now
	t.reads++
}

// begin opens span inside the current one.
func (t *tracer) begin(span int) {
	t.lap()
	t.stack[t.depth] = span
	t.depth++
}

// next closes the current span and opens span in its place.
func (t *tracer) next(span int) {
	t.lap()
	t.stack[t.depth-1] = span
}

// end closes the current span.
func (t *tracer) end() {
	t.lap()
	t.depth--
}

// closeWindow folds everything since the previous call into one window span
// per layer.
func (t *tracer) closeWindow(endSim time.Duration) {
	if !t.keep {
		return
	}
	delta := t.spanTotals.sub(t.mark)
	t.mark = t.spanTotals
	for i := 0; i < numSpans; i++ {
		if delta.self[i] == 0 {
			continue
		}
		ws := windowSpan{Doc: t.doc, EndSimS: int64(endSim / time.Second), Name: spanNames[i],
			SelfNs: int64(delta.self[i])}
		if p := spanParents[i]; p >= 0 {
			ws.Parent = spanNames[p]
		}
		t.windows = append(t.windows, ws)
	}
}

// clockReadCost measures one clock read, to state the tracer's own cost.
func clockReadCost() time.Duration {
	const n = 100000
	start := time.Now()
	var t time.Time
	for i := 0; i < n; i++ {
		t = time.Now()
	}
	return t.Sub(start) / n
}

// writeSpans writes the kept window spans as JSON lines.
func writeSpans(path string, spans []windowSpan) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write spans: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
