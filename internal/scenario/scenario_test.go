package scenario

import (
	"strings"
	"testing"
	"time"

	"hyscale/internal/platform"
	"hyscale/internal/runner"
)

const minimal = `{
  "seed": 1,
  "nodes": 4,
  "algorithm": "hybridmem",
  "duration": "90s",
  "services": [
    {
      "name": "api", "kind": "cpu",
      "cpuPerRequest": 0.1, "targetUtil": 0.5,
      "load": {"type": "wave", "base": 10, "amplitude": 0.3, "period": "1m"}
    }
  ]
}`

func TestParseMinimal(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Nodes != 4 || sc.Algorithm != "hybridmem" {
		t.Errorf("parsed = %+v", sc)
	}
	if time.Duration(sc.Duration) != 90*time.Second {
		t.Errorf("duration = %v", sc.Duration)
	}
	spec, err := sc.Services[0].Spec()
	if err != nil {
		t.Fatal(err)
	}
	// Defaults filled in.
	if spec.BaselineMemMB != 300 || spec.MinReplicas != 1 || spec.MaxReplicas != 10 {
		t.Errorf("defaults not applied: %+v", spec)
	}
	if spec.Timeout != 30*time.Second {
		t.Errorf("timeout default = %v", spec.Timeout)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(minimal, `"seed": 1`, `"sede": 1`, 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Error("typo field accepted")
	}
}

func TestParseValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(string) string
		// want, when set, must appear in the error.
		want []string
	}{
		{"bad duration", func(s string) string { return strings.Replace(s, `"90s"`, `"ninety"`, 1) }, nil},
		{"zero duration", func(s string) string { return strings.Replace(s, `"90s"`, `"0s"`, 1) }, nil},
		{"no services", func(s string) string {
			return strings.Replace(s, `"services": [`, `"services": [], "failures": [`, 1)
		}, nil},
		{"bad kind", func(s string) string { return strings.Replace(s, `"kind": "cpu"`, `"kind": "gpu"`, 1) }, nil},
		{"bad load", func(s string) string { return strings.Replace(s, `"type": "wave"`, `"type": "sawtooth"`, 1) }, nil},
		{"empty name", func(s string) string { return strings.Replace(s, `"name": "api"`, `"name": ""`, 1) }, nil},
		{"negative base", func(s string) string {
			return strings.Replace(s, `{"type": "wave", "base": 10, "amplitude": 0.3, "period": "1m"}`,
				`{"type": "constant", "base": -5}`, 1)
		}, []string{`"api"`, "base"}},
		{"negative peak", func(s string) string {
			return strings.Replace(s, `{"type": "wave", "base": 10, "amplitude": 0.3, "period": "1m"}`,
				`{"type": "burst", "base": 10, "peak": -20, "period": "1m", "burstLen": "10s"}`, 1)
		}, []string{`"api"`, "peak"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tt.mutate(minimal)))
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			for _, w := range tt.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %s", err, w)
				}
			}
		})
	}
}

func TestDuplicateServiceNames(t *testing.T) {
	dup := strings.Replace(minimal, `]
}`, `, {
      "name": "api", "kind": "cpu",
      "load": {"type": "constant", "base": 1}
    }]
}`, 1)
	if _, err := Parse(strings.NewReader(dup)); err == nil {
		t.Error("duplicate service accepted")
	}
}

func TestLoadPatternTypes(t *testing.T) {
	tests := []struct {
		load runner.LoadSpec
		at   time.Duration
		want float64
	}{
		{runner.LoadSpec{Type: "constant", Base: 7}, time.Hour, 7},
		{runner.LoadSpec{Type: "ramp", Base: 0, Peak: 10, RampUp: runner.Duration(10 * time.Second)}, 5 * time.Second, 5},
		{runner.LoadSpec{Type: "burst", Base: 1, Peak: 9, Period: runner.Duration(time.Minute), BurstLen: runner.Duration(10 * time.Second)}, 5 * time.Second, 9},
		{runner.LoadSpec{Type: "diurnal", Base: 10, Amplitude: 0.5, Period: runner.Duration(time.Hour)}, 0, 10},
		{runner.LoadSpec{Type: "flashcrowd", Base: 2, Peak: 20, Start: runner.Duration(time.Minute), RampUp: runner.Duration(time.Second), Hold: runner.Duration(time.Minute)}, 90 * time.Second, 20},
	}
	for _, tt := range tests {
		p, err := tt.load.Pattern()
		if err != nil {
			t.Fatalf("%s: %v", tt.load.Type, err)
		}
		if got := p.Rate(tt.at); got != tt.want {
			t.Errorf("%s.Rate(%v) = %v, want %v", tt.load.Type, tt.at, got, tt.want)
		}
	}
}

func TestBuildAndRunEndToEnd(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	w := run(t, sc)
	s := w.Summary()
	if s.Completed < 500 {
		t.Errorf("completed = %d, want >= 500", s.Completed)
	}
	if s.FailedPercent() > 1 {
		t.Errorf("failed = %.2f%%", s.FailedPercent())
	}
}

func TestBuildWithFailures(t *testing.T) {
	js := strings.Replace(minimal, `"services"`, `"failures": [{"node": "node-1", "at": "30s"}], "services"`, 1)
	sc, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	w := run(t, sc)
	if got := len(w.Cluster().Nodes()); got != 3 {
		t.Errorf("nodes = %d after failure, want 3", got)
	}
}

func TestBuildAlgorithms(t *testing.T) {
	// "none" handled at Build level: the scenario runs with a no-op scaler.
	js := strings.Replace(minimal, `"hybridmem"`, `"none"`, 1)
	sc, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runner.Build(compile(t, sc)); err != nil {
		t.Errorf("algorithm none: %v", err)
	}
}

// compile lowers a parsed scenario to its RunSpec.
func compile(t *testing.T, sc *Scenario) runner.RunSpec {
	t.Helper()
	spec, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// run compiles and runs a parsed scenario, returning the world.
func run(t *testing.T, sc *Scenario) *platform.World {
	t.Helper()
	res, err := runner.Run(compile(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	return res.World
}
