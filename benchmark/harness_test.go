package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// shortened returns the workload with every document's horizon cut to
// horizon, its node failures moved proportionally so they still fire.
func shortened(t *testing.T, name string, seed int64, horizon time.Duration) docSet {
	t.Helper()
	w, err := generate(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range w.Docs {
		var d scenarioDoc
		if err := json.Unmarshal(b, &d); err != nil {
			t.Fatal(err)
		}
		full, err := time.ParseDuration(d.Duration)
		if err != nil {
			t.Fatal(err)
		}
		d.Duration = dur(horizon)
		for j, f := range d.Failures {
			at, err := time.ParseDuration(f.At)
			if err != nil {
				t.Fatal(err)
			}
			d.Failures[j].At = dur((at * horizon / full).Round(time.Second))
		}
		if w.Docs[i], err = json.Marshal(d); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// shortHorizons keep each workload's test under a few seconds while still
// covering several monitor periods and, for churn-600n, its node failures.
var shortHorizons = map[string]time.Duration{
	"paper-fig7": 2 * time.Minute,
	"dc-1k":      30 * time.Second,
	"dc-5k-16z":  10 * time.Second,
	"churn-600n": 4 * time.Minute,
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if len(a.Docs) == 0 || len(a.Docs) != len(b.Docs) || len(a.Docs) != len(c.Docs) {
			t.Fatalf("%s: document counts %d/%d/%d", name, len(a.Docs), len(b.Docs), len(c.Docs))
		}
		for i := range a.Docs {
			if !bytes.Equal(a.Docs[i], b.Docs[i]) {
				t.Errorf("%s document %d: same seed, different bytes", name, i)
			}
			if bytes.Equal(a.Docs[i], c.Docs[i]) {
				t.Errorf("%s document %d: different seeds, same bytes", name, i)
			}
		}
	}
}

// TestFidelityGate replays every workload, shortened, through the World and
// the layer driver and requires identical outcomes and conservation.
func TestFidelityGate(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			if shortHorizons[name] == 0 {
				t.Fatal("no short horizon for this workload")
			}
			w := shortened(t, name, 3, shortHorizons[name])
			it, err := runIteration(w, newHeapSampler(), newCalibrator())
			if err != nil {
				t.Fatal(err)
			}
			var tr tracer
			traced, err := runTracedIteration(w, &tr, newCalibrator())
			if err != nil {
				t.Fatal(err)
			}
			if err := checkFidelity(it, traced); err != nil {
				t.Fatal(err)
			}
			if it.requests() == 0 {
				t.Fatal("no requests simulated")
			}
		})
	}
}

// TestFidelityGateCatchesADifference checks the gate is not vacuous.
func TestFidelityGateCatchesADifference(t *testing.T) {
	w := shortened(t, "dc-1k", 3, 10*time.Second)
	it, err := runIteration(w, newHeapSampler(), newCalibrator())
	if err != nil {
		t.Fatal(err)
	}
	var tr tracer
	traced, err := runTracedIteration(w, &tr, newCalibrator())
	if err != nil {
		t.Fatal(err)
	}
	traced[0].out.Actions.ScaleOuts++
	if err := checkFidelity(it, traced); err == nil {
		t.Fatal("a changed action count passed the fidelity gate")
	}
	traced[0].out.Actions.ScaleOuts--
	traced[0].counts.generated++
	if err := checkFidelity(it, traced); err == nil {
		t.Fatal("a lost request passed the conservation check")
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name+" "+m.Unit] = true
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name+" "+m.Unit] = true
	}
	return endToEnd, perLayer
}

func TestPrintedMetricsAreDeclared(t *testing.T) {
	endToEnd, perLayer := declared(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	w := shortened(t, "churn-600n", 2, 3*time.Minute)
	for _, c := range []struct {
		traced bool
		want   map[string]bool
	}{{false, endToEnd}, {true, perLayer}} {
		var out bytes.Buffer
		res, err := measure(&out, w, 0, c.traced, "")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("traced=%v: result %+v\n%s", c.traced, res, out.String())
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("traced=%v: printed %d metrics, BENCHMARK.json declares %d", c.traced, len(res.Metrics), len(c.want))
		}
		for name, m := range res.Metrics {
			if !valid.MatchString(name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
			}
			if !c.want[name+" "+m.Unit] {
				t.Errorf("traced=%v: metric %q (%s) is not declared in BENCHMARK.json", c.traced, name, m.Unit)
			}
		}
	}
}

// TestReplayMatchesHyscaleSim writes a generated document to disk, runs it
// with hyscale-sim -config and compares the TOTAL line with the summary the
// benchmark computed.
func TestReplayMatchesHyscaleSim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hyscale-sim")
	}
	w := shortened(t, "churn-600n", 5, 3*time.Minute)
	path := filepath.Join(t.TempDir(), "churn.json")
	if err := os.WriteFile(path, w.Docs[0], 0o644); err != nil {
		t.Fatal(err)
	}
	it, err := runIteration(w, newHeapSampler(), newCalibrator())
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "run", "hyscale/cmd/hyscale-sim", "-config", path).CombinedOutput()
	if err != nil {
		t.Fatalf("hyscale-sim: %v\n%s", err, out)
	}
	want := "TOTAL      " + it[0].out.Summary.String()
	if !strings.Contains(string(out), want+"\n") {
		t.Fatalf("hyscale-sim output lacks %q:\n%s", want, out)
	}
}

// TestReadmeLinks applies the repository's markdown link check to this
// directory's README.
func TestReadmeLinks(t *testing.T) {
	body, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`).FindAllStringSubmatch(string(body), -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
			t.Errorf("README.md: broken link %q: %v", m[0], err)
		}
	}
}
