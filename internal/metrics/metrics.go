// Package metrics collects the user-perceived performance measurements the
// paper reports: average response times, request failure percentages broken
// down by class (removal vs connection failures), availability, and
// time-series samples for plotting.
package metrics

import (
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
// The recorder keeps every latency sample for exact percentiles (what the
// experiment tables report). The log-bucket histogram that long-lived
// deployments export (the /v1/latency endpoint in internal/httpapi) is built
// from those samples on read, so recording a completion is an append.
//
// Services are interned: each name gets a dense workload.ServiceID on first
// use (Intern), and the ID-keyed methods index a slice. The platform interns
// its services at registration, so its IDs are the recorder's; the
// name-keyed methods are thin wrappers for everything else.
type Recorder struct {
	ids  map[string]workload.ServiceID
	byID []*ServiceStats
	// order lists the services that have recorded anything (or reserved
	// room), in first-seen order.
	order []*ServiceStats

	// svcScratch is Services' reusable result buffer — valid until the next
	// Services call.
	svcScratch []*ServiceStats

	// mergeBuf is the shared scratch for incremental sorted merges.
	mergeBuf []time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ids: make(map[string]workload.ServiceID)}
}

// LatencyHistogram builds the default latency histogram over every
// completion recorded so far, across all services. Its counts, sum and max
// do not depend on the order samples are folded in, so it equals a histogram
// fed each completion as it arrived, although Summarize sorts the samples in
// place.
func (r *Recorder) LatencyHistogram() *stats.Histogram {
	h := stats.DefaultLatencyHistogram()
	for _, s := range r.order {
		for _, d := range s.latencies {
			h.Observe(d)
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

	// latencies holds every completion's latency. latencies[:sortedN] is in
	// ascending order; samples recorded since the last summary follow it in
	// arrival order until the next summary sorts them in place.
	latencies []time.Duration
	sortedN   int
	totalLat  time.Duration

	// seen marks a service listed in Recorder.order.
	seen bool
}

// sortedLatencies returns the service's latencies in ascending order,
// sorting in place: only samples appended since the last call are sorted,
// then merged into the sorted prefix — O(new·log new + shifted) instead of
// a full re-sort per refresh. buf is the merge scratch.
func (s *ServiceStats) sortedLatencies(buf *[]time.Duration) []time.Duration {
	if s.sortedN != len(s.latencies) {
		*buf = mergeSortedSuffix(s.latencies, s.sortedN, *buf)
		s.sortedN = len(s.latencies)
	}
	return s.latencies
}

// mergeSortedSuffix sorts all[n:] and merges it into the already-sorted
// all[:n], in place, using (and returning) buf as scratch for the suffix.
func mergeSortedSuffix(all []time.Duration, n int, buf []time.Duration) []time.Duration {
	tail := all[n:]
	if len(tail) == 0 {
		return buf
	}
	slices.Sort(tail)
	if n == 0 || all[n-1] <= tail[0] {
		// Already in order — the common case when latencies trend upward.
		return buf
	}
	buf = append(buf[:0], tail...)
	// Backward two-pointer merge: stops as soon as the suffix is placed, so
	// the cost is proportional to how far new samples reach into the run.
	i, k := n-1, len(all)-1
	for j := len(buf) - 1; j >= 0; {
		if i >= 0 && all[i] > buf[j] {
			all[k] = all[i]
			i--
		} else {
			all[k] = buf[j]
			j--
		}
		k--
	}
	return buf
}

// Intern returns the service's ID, assigning the next dense ID on first
// use. Interning alone does not list the service in Services.
func (r *Recorder) Intern(service string) workload.ServiceID {
	id, ok := r.ids[service]
	if !ok {
		id = workload.ServiceID(len(r.byID))
		r.ids[service] = id
		r.byID = append(r.byID, &ServiceStats{Name: service})
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
	s.latencies = append(s.latencies, latency)
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

// Reserve pre-sizes the latency storage for a service expected to complete
// about n requests, so bulk injection does not grow the sample slices
// repeatedly. It never shrinks and is safe to call at any time.
func (r *Recorder) Reserve(service string, n int) {
	s := r.record(r.Intern(service))
	if extra := n - (cap(s.latencies) - len(s.latencies)); extra > 0 {
		grown := make([]time.Duration, len(s.latencies), cap(s.latencies)+extra)
		copy(grown, s.latencies)
		s.latencies = grown
	}
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
// nearest-rank over the union of every service's samples, selected from the
// per-service sorted runs without materialising the union.
func (r *Recorder) Summarize() Summary {
	var sum Summary
	var total time.Duration
	samples := 0
	for _, s := range r.order {
		sum.Completed += s.Completed
		sum.RemovalFailures += s.RemovalFailures
		sum.ConnectionFailures += s.ConnectionFailures
		if len(s.latencies) > 0 {
			s.sortedLatencies(&r.mergeBuf)
			samples += len(s.latencies)
			total += s.totalLat
		}
	}
	sum.Requests = sum.Completed + sum.RemovalFailures + sum.ConnectionFailures
	if samples > 0 {
		sum.MeanLatency = total / time.Duration(samples)
		sum.P50Latency = r.rankValue(nearestRank(samples, 0.50))
		sum.P95Latency = r.rankValue(nearestRank(samples, 0.95))
		sum.P99Latency = r.rankValue(nearestRank(samples, 0.99))
		sum.MaxLatency = r.rankValue(samples - 1)
	}
	return sum
}

// rankValue returns the k-th smallest (0-based) latency across all services'
// sorted runs: the smallest recorded value v with more than k samples ≤ v.
// It binary-searches the value range, counting ≤ v in each run by binary
// search, so it costs O(log range · services · log samples).
func (r *Recorder) rankValue(k int) time.Duration {
	lo, hi := time.Duration(math.MaxInt64), time.Duration(math.MinInt64)
	for _, s := range r.order {
		if n := len(s.latencies); n > 0 {
			lo = min(lo, s.latencies[0])
			hi = max(hi, s.latencies[n-1])
		}
	}
	for lo < hi {
		// hi-lo may overflow int64 but is exact as uint64.
		mid := lo + time.Duration(uint64(hi-lo)/2)
		count := 0
		for _, s := range r.order {
			// Samples ≤ mid sit before the insertion point of mid+1, which
			// cannot overflow: mid < hi.
			n, _ := slices.BinarySearch(s.latencies, mid+1)
			count += n
		}
		if count > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
	if len(s.latencies) > 0 {
		lat := s.sortedLatencies(&r.mergeBuf)
		sum.MeanLatency = s.totalLat / time.Duration(len(lat))
		sum.P50Latency = percentile(lat, 0.50)
		sum.P95Latency = percentile(lat, 0.95)
		sum.P99Latency = percentile(lat, 0.99)
		sum.MaxLatency = lat[len(lat)-1]
	}
	return sum
}

// percentile returns the p-quantile (0..1) of a sorted slice using the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)]
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
