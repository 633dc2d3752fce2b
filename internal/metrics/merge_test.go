package metrics

// Tests for the incremental sorted-merge machinery that replaced the full
// per-refresh re-sort, plus allocation regressions for the accessors the
// observability layer calls every monitor period.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hyscale/internal/workload"
)

// TestMergeSortedSuffixProperty cross-checks the in-place suffix merge
// against a plain full sort across random prefix/suffix shapes, including
// the degenerate cases (empty prefix, empty suffix, suffix entirely before
// or after the prefix).
func TestMergeSortedSuffixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf []time.Duration
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		m := rng.Intn(40)
		all := make([]time.Duration, 0, n+m)
		for i := 0; i < n; i++ {
			all = append(all, time.Duration(rng.Intn(1000)))
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for i := 0; i < m; i++ {
			all = append(all, time.Duration(rng.Intn(1000)))
		}
		want := append([]time.Duration(nil), all...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		buf = mergeSortedSuffix(all, n, buf)
		for i := range want {
			if all[i] != want[i] {
				t.Fatalf("trial %d (n=%d m=%d): merged[%d] = %v, want %v\nmerged: %v\nwant:   %v",
					trial, n, m, i, all[i], want[i], all, want)
			}
		}
	}
}

// TestIncrementalSummariesMatchFullSort records in several interleaved
// rounds and checks that the incrementally-maintained percentile caches
// agree with a from-scratch recorder fed the same samples all at once.
func TestIncrementalSummariesMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inc := NewRecorder()
	type sample struct {
		svc string
		lat time.Duration
	}
	var history []sample
	svcs := []string{"a", "b", "c"}
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i++ {
			s := sample{svcs[rng.Intn(len(svcs))], time.Duration(rng.Intn(5000)) * time.Millisecond}
			history = append(history, s)
			inc.RecordCompletion(s.svc, s.lat)
		}
		// Summarize mid-stream so later rounds merge into a warm cache.
		fresh := NewRecorder()
		for _, s := range history {
			fresh.RecordCompletion(s.svc, s.lat)
		}
		got, want := inc.Summarize(), fresh.Summarize()
		if got != want {
			t.Fatalf("round %d: incremental summary %+v != full-sort summary %+v", round, got, want)
		}
		for _, svc := range svcs {
			if g, w := inc.SummarizeService(svc), fresh.SummarizeService(svc); g != w {
				t.Fatalf("round %d: service %s incremental %+v != full %+v", round, svc, g, w)
			}
		}
	}
}

// TestServicesAllocFree pins the per-poll accessor to zero steady-state
// allocations: the returned slice is reused scratch.
func TestServicesAllocFree(t *testing.T) {
	r := NewRecorder()
	for _, svc := range []string{"a", "b", "c", "d"} {
		r.RecordCompletion(svc, time.Millisecond)
	}
	r.Services() // size the scratch buffer
	if allocs := testing.AllocsPerRun(100, func() { r.Services() }); allocs != 0 {
		t.Errorf("Services allocates %.1f objects/call, want 0", allocs)
	}
}

// TestSummariesMatchSortedUnionProperty checks Summarize and
// SummarizeService against a reference that sorts the union of all samples
// and takes nearest-rank percentiles. Random recorders mix empty services
// (failures or reservations only), heavily duplicated latencies, and
// summaries interleaved with recording.
func TestSummariesMatchSortedUnionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1013))
	nearest := func(sorted []time.Duration, p float64) time.Duration {
		rank := int(math.Ceil(p*float64(len(sorted)))) - 1
		return sorted[max(rank, 0)]
	}
	reference := func(lats []time.Duration, completed, removal, conn uint64) Summary {
		s := Summary{Completed: completed, RemovalFailures: removal, ConnectionFailures: conn}
		s.Requests = completed + removal + conn
		if len(lats) == 0 {
			return s
		}
		sorted := append([]time.Duration(nil), lats...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var total time.Duration
		for _, l := range sorted {
			total += l
		}
		s.MeanLatency = total / time.Duration(len(sorted))
		s.P50Latency = nearest(sorted, 0.50)
		s.P95Latency = nearest(sorted, 0.95)
		s.P99Latency = nearest(sorted, 0.99)
		s.MaxLatency = sorted[len(sorted)-1]
		return s
	}
	type svcTruth struct {
		lats                 []time.Duration
		completed, rem, conn uint64
	}
	for trial := 0; trial < 200; trial++ {
		r := NewRecorder()
		nsvc := 1 + rng.Intn(6)
		names := make([]string, nsvc)
		truth := make(map[string]*svcTruth, nsvc)
		for i := range names {
			names[i] = string(rune('a' + i))
			truth[names[i]] = &svcTruth{}
		}
		// Small value ranges force duplicates; some trials use one value.
		span := 1 + rng.Intn(50)
		if trial%10 == 0 {
			span = 1
		}
		check := func(round int) {
			t.Helper()
			var all []time.Duration
			var c, rm, cn uint64
			for _, name := range names {
				tr := truth[name]
				all = append(all, tr.lats...)
				c, rm, cn = c+tr.completed, rm+tr.rem, cn+tr.conn
				if got, want := r.SummarizeService(name), reference(tr.lats, tr.completed, tr.rem, tr.conn); got != want {
					t.Fatalf("trial %d round %d: SummarizeService(%s) = %+v, want %+v", trial, round, name, got, want)
				}
			}
			if got, want := r.Summarize(), reference(all, c, rm, cn); got != want {
				t.Fatalf("trial %d round %d: Summarize = %+v, want %+v", trial, round, got, want)
			}
		}
		rounds := 1 + rng.Intn(5)
		for round := 0; round < rounds; round++ {
			for i, n := 0, rng.Intn(120); i < n; i++ {
				name := names[rng.Intn(nsvc)]
				tr := truth[name]
				switch k := rng.Intn(10); {
				case name == "a" && nsvc > 1: // "a" never completes anything
					if k%2 == 0 {
						r.RecordFailure(name, workload.FailureRemoval)
						tr.rem++
					} else {
						r.Reserve(name, 8)
					}
				case k == 0:
					r.RecordFailure(name, workload.FailureConnection)
					tr.conn++
				default:
					lat := time.Duration(rng.Intn(span)) * time.Millisecond
					r.RecordCompletion(name, lat)
					tr.lats = append(tr.lats, lat)
					tr.completed++
				}
			}
			// Interleave the two summaries in either order between rounds.
			if rng.Intn(2) == 0 {
				r.Summarize()
			}
			check(round)
		}
	}
}
