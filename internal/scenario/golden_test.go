package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestShippedScenariosCompileGolden pins what every shipped scenario file
// compiles to: the run header, the platform and manager configuration, each
// service's materialised spec, target and load pattern, and the node
// failures. It prints the loadgen.Pattern a service's load resolves to,
// never the load spec's own fields, so the golden holds across changes to
// how loads are declared. Regenerate with
//
//	go test ./internal/scenario -run CompileGolden -update
func TestShippedScenariosCompileGolden(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files found: %v", err)
	}
	var b strings.Builder
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spec, err := sc.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", path, err)
		}
		fmt.Fprintf(&b, "== %s\n", filepath.Base(path))
		fmt.Fprintf(&b, "seed=%d algorithm=%q duration=%v\n", spec.Seed, spec.Algorithm, spec.Duration)
		// The resilience blocks are pointers; print what they point to.
		cfg := spec.Platform
		res := cfg.Resilience
		cfg.Resilience.Breakers, cfg.Resilience.Retry = nil, nil
		cfg.Resilience.Deadlines, cfg.Resilience.Shedding = nil, nil
		fmt.Fprintf(&b, "platform: %+v\n", cfg)
		if res.Breakers != nil {
			fmt.Fprintf(&b, "breakers: %+v\n", *res.Breakers)
		}
		if res.Retry != nil {
			fmt.Fprintf(&b, "retry: %+v\n", *res.Retry)
		}
		if res.Deadlines != nil {
			fmt.Fprintf(&b, "deadlines: %+v\n", *res.Deadlines)
		}
		if res.Shedding != nil {
			fmt.Fprintf(&b, "shedding: %+v\n", *res.Shedding)
		}
		if spec.Manager != nil {
			fmt.Fprintf(&b, "manager: %+v\n", *spec.Manager)
		}
		for _, s := range spec.Services {
			p, err := s.Load.Pattern()
			if err != nil {
				t.Fatalf("%s: service %q: %v", path, s.Spec.Name, err)
			}
			fmt.Fprintf(&b, "service: %+v target=%v load=%#v\n", s.Spec, s.Target, p)
		}
		for _, nf := range spec.NodeFailures {
			fmt.Fprintf(&b, "failure: %+v\n", nf)
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "compile.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Fatalf("compiled scenarios drifted from %s (run with -update to regenerate)\n--- got ---\n%s", golden, got)
	}
}
