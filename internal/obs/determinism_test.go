package obs_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hyscale/internal/obs"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// observedSpecs builds a small batch of observed runs mixing algorithms and
// load shapes, sized so scale-outs, verticals and scale-ins all fire.
func observedSpecs() []runner.RunSpec {
	svc := func(name string) runner.ServiceRun {
		return runner.ServiceRun{
			Spec: workload.ServiceSpec{
				Name: name, Kind: workload.KindCPUBound,
				CPUPerRequest: 0.08, MemPerRequest: 2, BaselineMemMB: 200,
				CPUOverheadPerRequest: 0.01,
				InitialReplicaCPU:     1, InitialReplicaMemMB: 512,
				MinReplicas: 1, MaxReplicas: 8, Timeout: 20 * time.Second,
			},
			Target: 0.5,
			Load: runner.LoadSpec{Type: "burst", Base: 6, Peak: 30,
				Period: runner.Duration(80 * time.Second), BurstLen: runner.Duration(25 * time.Second)},
		}
	}
	var specs []runner.RunSpec
	for _, algo := range []string{"kubernetes", "hybrid", "hybridmem"} {
		specs = append(specs, runner.RunSpec{
			Name:      "det/" + algo,
			Algorithm: algo,
			Duration:  4 * time.Minute,
			Services:  []runner.ServiceRun{svc("api"), svc("web")},
			Observe:   true,
		})
	}
	return specs
}

// artifactBytes serializes every run's JSONL and CSV artifacts into one
// buffer, in spec order.
func artifactBytes(t *testing.T, results []runner.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Journal == nil {
			t.Fatalf("%s: no journal on an observed run", r.Spec.Name)
		}
		fmt.Fprintf(&buf, "== %s ==\n", r.Spec.Name)
		if err := r.Journal.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if err := r.Journal.WriteSeriesCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestParallelJournalDeterminism is the tentpole guarantee: observed batches
// produce byte-identical decision logs and series CSVs for any executor
// worker count.
func TestParallelJournalDeterminism(t *testing.T) {
	var golden []byte
	for _, workers := range []int{1, 2, 4} {
		results, _, err := runner.Execute(workers, 1, observedSpecs())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b := artifactBytes(t, results)
		if golden == nil {
			golden = b
			// Sanity: the batch must actually journal something.
			totalDecisions := 0
			for _, r := range results {
				totalDecisions += len(r.Journal.Decisions())
				if len(r.Journal.Samples()) == 0 {
					t.Fatalf("%s: no series samples", r.Spec.Name)
				}
			}
			if totalDecisions == 0 {
				t.Fatal("batch journaled zero decisions")
			}
			continue
		}
		if !bytes.Equal(golden, b) {
			t.Fatalf("workers=%d: artifacts differ from workers=1 (%d vs %d bytes)",
				workers, len(b), len(golden))
		}
	}
}

// TestUnobservedRunHasNoJournal pins the zero-overhead contract: without
// Observe, no journal exists and the nil journal answers every query.
func TestUnobservedRunHasNoJournal(t *testing.T) {
	specs := observedSpecs()[:1]
	specs[0].Observe = false
	results, _, err := runner.Execute(1, 1, specs)
	if err != nil {
		t.Fatal(err)
	}
	j := results[0].Journal
	if j != nil {
		t.Fatalf("unobserved run produced a journal")
	}
	if j.Enabled() || j.Decisions() != nil || j.Samples() != nil ||
		j.Services() != nil || j.OutcomeCounts() != nil {
		t.Fatal("nil journal must answer every query with zero values")
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil journal WriteJSONL: err=%v len=%d", err, buf.Len())
	}
}

// TestJSONLRoundTrip checks ParseJSONL inverts WriteJSONL.
func TestJSONLRoundTrip(t *testing.T) {
	results, _, err := runner.Execute(1, 1, observedSpecs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	j := results[0].Journal
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := j.Decisions()
	if len(parsed) != len(want) {
		t.Fatalf("round trip: %d decisions, want %d", len(parsed), len(want))
	}
	for i := range want {
		if parsed[i] != want[i] {
			t.Fatalf("decision %d: %+v != %+v", i, parsed[i], want[i])
		}
	}
}
