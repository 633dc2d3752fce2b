package scenario

import (
	"strings"
	"testing"
	"time"
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
		load Load
		at   time.Duration
		want float64
	}{
		{Load{Type: "constant", Base: 7}, time.Hour, 7},
		{Load{Type: "ramp", Base: 0, Peak: 10, RampUp: Duration(10 * time.Second)}, Duration(5 * time.Second).toTime(), 5},
		{Load{Type: "burst", Base: 1, Peak: 9, Period: Duration(time.Minute), BurstLen: Duration(10 * time.Second)}, 5 * time.Second, 9},
		{Load{Type: "diurnal", Base: 10, Amplitude: 0.5, Period: Duration(time.Hour)}, 0, 10},
		{Load{Type: "flashcrowd", Base: 2, Peak: 20, Start: Duration(time.Minute), RampUp: Duration(time.Second), Hold: Duration(time.Minute)}, 90 * time.Second, 20},
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

func (d Duration) toTime() time.Duration { return time.Duration(d) }

func TestBuildAndRunEndToEnd(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
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
	w, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Cluster().Nodes()); got != 3 {
		t.Errorf("nodes = %d after failure, want 3", got)
	}
}

func TestBuildAlgorithms(t *testing.T) {
	for _, name := range []string{
		"kubernetes", "network", "hybrid", "hybridmem",
		"hybrid-noreclaim", "hybridmem-vertical-only", "hybrid-horizontal-only",
	} {
		a, err := buildAlgorithm(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if a.Name() != name {
			t.Errorf("Name = %q, want %q", a.Name(), name)
		}
	}
	if _, err := buildAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// "none" handled at Build level: the scenario runs with a no-op scaler.
	js := strings.Replace(minimal, `"hybridmem"`, `"none"`, 1)
	sc, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Build(); err != nil {
		t.Errorf("algorithm none: %v", err)
	}
}

func TestDurationRoundTrip(t *testing.T) {
	d := Duration(90 * time.Second)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Errorf("marshal = %s", b)
	}
	var d2 Duration
	if err := d2.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Errorf("round trip = %v", d2)
	}
	if err := d2.UnmarshalJSON([]byte(`42`)); err == nil {
		t.Error("numeric duration accepted")
	}
}
