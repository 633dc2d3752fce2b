package metrics

// Tests for the per-distinct-value latency store and its sort-on-read
// summaries, plus allocation regressions for the accessors the
// observability layer calls every monitor period.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hyscale/internal/workload"
)

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
// (failures only), heavily duplicated latencies, all-distinct latencies
// (the store's worst case: one run per sample), and summaries interleaved
// with recording.
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
		// Small value ranges force duplicates; some trials use one value,
		// and some make every latency distinct.
		span := 1 + rng.Intn(50)
		if trial%10 == 0 {
			span = 1
		}
		allDistinct := trial%10 == 5
		seq := 0
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
						r.RecordFailure(name, workload.FailureConnection)
						tr.conn++
					}
				case k == 0:
					r.RecordFailure(name, workload.FailureConnection)
					tr.conn++
				default:
					lat := time.Duration(rng.Intn(span)) * time.Millisecond
					if allDistinct {
						// seq < 1ms is unique per sample, so no two collide;
						// the random millisecond part shuffles their order.
						lat = time.Duration(rng.Intn(1000))*time.Millisecond + time.Duration(seq)
						seq++
					}
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

// TestLatencyStorageBoundedByDistinct checks that the latency store grows
// with distinct values, not with requests: 10k and then 1M completions over
// the same 100 distinct values across 4 services retain exactly 100 counted
// values and, once summarised, 100 sorted runs — while the summaries still
// count every sample.
func TestLatencyStorageBoundedByDistinct(t *testing.T) {
	const distinct = 100
	svcs := []string{"a", "b", "c", "d"}
	r := NewRecorder()
	recorded := 0
	for _, total := range []int{10_000, 1_000_000} {
		for ; recorded < total; recorded++ {
			v := recorded % distinct
			r.RecordCompletion(svcs[v%len(svcs)], time.Duration(v+1)*10*time.Millisecond)
		}
		sum := r.Summarize()
		if sum.Completed != uint64(total) || sum.MaxLatency != distinct*10*time.Millisecond {
			t.Fatalf("after %d samples: completed=%d max=%v", total, sum.Completed, sum.MaxLatency)
		}
		if counted, runs := r.latencyEntries(); counted != distinct || runs != distinct {
			t.Errorf("after %d samples: %d counted values and %d runs retained, want %d each",
				total, counted, runs, distinct)
		}
	}
}

// BenchmarkRecordCompletion measures the record path: tick-quantised
// latencies (a few hundred distinct values, the common case) and
// all-distinct latencies (the store's worst case, one map entry per sample).
func BenchmarkRecordCompletion(b *testing.B) {
	for _, bc := range []struct {
		name    string
		latency func(i int) time.Duration
	}{
		{"tick-quantised", func(i int) time.Duration { return time.Duration(1+i%500) * 100 * time.Millisecond }},
		{"all-distinct", func(i int) time.Duration { return time.Duration(i) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewRecorder()
			id := r.Intern("svc")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RecordCompletionID(id, bc.latency(i))
			}
		})
	}
}
