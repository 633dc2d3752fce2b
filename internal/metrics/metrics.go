// Package metrics collects the user-perceived performance measurements the
// paper reports: average response times, request failure percentages broken
// down by class (removal vs connection failures), availability, and
// time-series samples for plotting.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"hyscale/internal/stats"
	"hyscale/internal/workload"
)

// Recorder accumulates per-service request outcomes for one experiment run.
// It is not safe for concurrent use; the simulation is single-threaded.
//
// The recorder keeps every latency sample exactly, for exact percentiles
// (what the experiment tables report), but stores them as a count per
// distinct value: simulated latencies are tick-quantised, so memory grows
// with the distinct values seen rather than with requests. The log-bucket
// histogram that long-lived deployments export (the /v1/latency endpoint in
// internal/httpapi) is built from those counts on read, so recording a
// completion is one map increment.
//
// Services are interned: each name gets a dense workload.ServiceID on first
// use (Intern), and the ID-keyed methods index a slice. The platform interns
// its services at registration, so its IDs are the recorder's; the
// name-keyed methods are thin wrappers for everything else.
type Recorder struct {
	ids  map[string]workload.ServiceID
	byID []*ServiceStats
	// order lists the services that have recorded anything, in first-seen
	// order.
	order []*ServiceStats

	// svcScratch is Services' reusable result buffer — valid until the next
	// Services call.
	svcScratch []*ServiceStats

	// unionBuf is Summarize's reused scratch for every service's runs.
	unionBuf []run
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ids: make(map[string]workload.ServiceID)}
}

// LatencyHistogram builds the default latency histogram over every
// completion recorded so far, across all services, in O(distinct values).
// Its counts, sum and max do not depend on the order samples are folded in,
// so it equals a histogram fed each completion as it arrived.
func (r *Recorder) LatencyHistogram() *stats.Histogram {
	h := stats.DefaultLatencyHistogram()
	for _, s := range r.order {
		for d, n := range s.counts {
			h.ObserveN(d, n)
		}
	}
	return h
}

// ServiceStats holds the outcome counters and latency samples for one
// microservice.
type ServiceStats struct {
	Name string

	Completed          uint64
	RemovalFailures    uint64
	ConnectionFailures uint64

	// counts holds every completion's latency as a count per distinct value.
	counts   map[time.Duration]uint64
	totalLat time.Duration
	// runs is counts in ascending latency order, rebuilt on read when
	// completions have landed since (runsAt trails Completed).
	runs   []run
	runsAt uint64

	// seen marks a service listed in Recorder.order.
	seen bool
}

// run is one distinct latency and the number of completions that took it.
type run struct {
	d time.Duration
	n uint64
}

// sortedRuns returns the service's latencies as ascending runs, rebuilding
// them from the counts only when completions landed since the last call.
func (s *ServiceStats) sortedRuns() []run {
	if s.runsAt != s.Completed {
		s.runs = s.runs[:0]
		for d, n := range s.counts {
			s.runs = append(s.runs, run{d, n})
		}
		sortRuns(s.runs)
		s.runsAt = s.Completed
	}
	return s.runs
}

func sortRuns(runs []run) {
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.d, b.d) })
}

// Intern returns the service's ID, assigning the next dense ID on first
// use. Interning alone does not list the service in Services.
func (r *Recorder) Intern(service string) workload.ServiceID {
	id, ok := r.ids[service]
	if !ok {
		id = workload.ServiceID(len(r.byID))
		r.ids[service] = id
		r.byID = append(r.byID, &ServiceStats{Name: service, counts: make(map[time.Duration]uint64)})
	}
	return id
}

// lookup returns the service's stats without interning, or nil.
func (r *Recorder) lookup(service string) *ServiceStats {
	if id, ok := r.ids[service]; ok {
		return r.byID[id]
	}
	return nil
}

// record returns an interned service's stats, listing it in first-seen
// order.
func (r *Recorder) record(id workload.ServiceID) *ServiceStats {
	s := r.byID[id]
	if !s.seen {
		s.seen = true
		r.order = append(r.order, s)
	}
	return s
}

// RecordCompletion records a successful request with its response time.
func (r *Recorder) RecordCompletion(service string, latency time.Duration) {
	r.RecordCompletionID(r.Intern(service), latency)
}

// RecordCompletionID is RecordCompletion for an interned service.
func (r *Recorder) RecordCompletionID(id workload.ServiceID, latency time.Duration) {
	s := r.record(id)
	s.Completed++
	s.counts[latency]++
	s.totalLat += latency
}

// RecordFailure records a failed request with its failure class.
func (r *Recorder) RecordFailure(service string, class workload.FailureClass) {
	r.RecordFailureID(r.Intern(service), class)
}

// RecordFailureID is RecordFailure for an interned service.
func (r *Recorder) RecordFailureID(id workload.ServiceID, class workload.FailureClass) {
	s := r.record(id)
	switch class {
	case workload.FailureRemoval:
		s.RemovalFailures++
	default:
		s.ConnectionFailures++
	}
}

// Services returns the per-service stats in first-seen order. The returned
// slice is a reused scratch buffer, valid until the next Services call; copy
// it to keep it longer.
func (r *Recorder) Services() []*ServiceStats {
	r.svcScratch = append(r.svcScratch[:0], r.order...)
	return r.svcScratch
}

// ServiceCounters returns one service's cumulative outcome counters and
// total completed-request latency — the cheap O(1) accessors the
// observability layer samples each monitor period (unknown services return
// zeros).
func (r *Recorder) ServiceCounters(name string) (completed, removalFailed, connFailed uint64, totalLatency time.Duration) {
	s := r.lookup(name)
	if s == nil {
		return 0, 0, 0, 0
	}
	return s.Completed, s.RemovalFailures, s.ConnectionFailures, s.totalLat
}

// Summary is the cross-service aggregate the paper's figures report.
type Summary struct {
	Requests           uint64
	Completed          uint64
	RemovalFailures    uint64
	ConnectionFailures uint64

	MeanLatency time.Duration
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	MaxLatency  time.Duration
}

// FailedPercent returns the percentage of all requests that failed.
func (s Summary) FailedPercent() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 100 * float64(s.RemovalFailures+s.ConnectionFailures) / float64(s.Requests)
}

// RemovalFailedPercent returns the percentage of requests that died to
// container removals.
func (s Summary) RemovalFailedPercent() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 100 * float64(s.RemovalFailures) / float64(s.Requests)
}

// ConnectionFailedPercent returns the percentage of requests that failed at
// the microservice.
func (s Summary) ConnectionFailedPercent() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 100 * float64(s.ConnectionFailures) / float64(s.Requests)
}

// String implements fmt.Stringer with the row format used in EXPERIMENTS.md.
func (s Summary) String() string {
	return fmt.Sprintf("requests=%d completed=%d failed=%.2f%% (removal=%.2f%% connection=%.2f%%) mean=%v p95=%v",
		s.Requests, s.Completed, s.FailedPercent(), s.RemovalFailedPercent(), s.ConnectionFailedPercent(),
		s.MeanLatency.Round(time.Millisecond), s.P95Latency.Round(time.Millisecond))
}

// Summarize aggregates all services into one Summary. Percentiles are
// nearest-rank over the union of every service's samples: the services'
// runs are gathered into one reused buffer and sorted once.
func (r *Recorder) Summarize() Summary {
	var sum Summary
	var total time.Duration
	union := r.unionBuf[:0]
	for _, s := range r.order {
		sum.Completed += s.Completed
		sum.RemovalFailures += s.RemovalFailures
		sum.ConnectionFailures += s.ConnectionFailures
		union = append(union, s.sortedRuns()...)
		total += s.totalLat
	}
	sortRuns(union)
	r.unionBuf = union
	sum.Requests = sum.Completed + sum.RemovalFailures + sum.ConnectionFailures
	sum.setLatencies(union, sum.Completed, total)
	return sum
}

// SummarizeService aggregates a single service, returning a zero Summary for
// unknown names.
func (r *Recorder) SummarizeService(name string) Summary {
	s := r.lookup(name)
	if s == nil {
		return Summary{}
	}
	var sum Summary
	sum.Completed = s.Completed
	sum.RemovalFailures = s.RemovalFailures
	sum.ConnectionFailures = s.ConnectionFailures
	sum.Requests = sum.Completed + sum.RemovalFailures + sum.ConnectionFailures
	sum.setLatencies(s.sortedRuns(), s.Completed, s.totalLat)
	return sum
}

// setLatencies fills the mean and the nearest-rank percentiles from
// ascending runs holding n samples that sum to total, walking the
// cumulative counts once. It leaves them zero when n is zero.
func (sum *Summary) setLatencies(runs []run, n uint64, total time.Duration) {
	if n == 0 {
		return
	}
	sum.MeanLatency = total / time.Duration(n)
	ranks := [...]int{nearestRank(int(n), 0.50), nearestRank(int(n), 0.95), nearestRank(int(n), 0.99)}
	dst := [...]*time.Duration{&sum.P50Latency, &sum.P95Latency, &sum.P99Latency}
	next := 0
	var cum uint64
	for _, r := range runs {
		cum += r.n
		for next < len(ranks) && cum > uint64(ranks[next]) {
			*dst[next] = r.d
			next++
		}
	}
	sum.MaxLatency = runs[len(runs)-1].d
}

// nearestRank returns the 0-based index of the p-quantile (0..1) among n
// sorted samples under the nearest-rank method.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n))) - 1
	return min(max(rank, 0), n-1)
}

// TimeSeries is an append-only series of (time, value) samples used to
// reproduce the paper's trace plots (e.g. Fig. 9).
type TimeSeries struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// Append adds a sample.
func (t *TimeSeries) Append(at time.Duration, v float64) {
	t.Times = append(t.Times, at)
	t.Values = append(t.Values, v)
}

// Len returns the number of samples.
func (t *TimeSeries) Len() int { return len(t.Values) }

// Mean returns the average of all values, or 0 when empty.
func (t *TimeSeries) Mean() float64 {
	if len(t.Values) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.Values {
		s += v
	}
	return s / float64(len(t.Values))
}

// Max returns the maximum value, or 0 when empty.
func (t *TimeSeries) Max() float64 {
	var m float64
	for i, v := range t.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}
