package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGridTablesGolden pins the robustness and pricing grids — chaos,
// recovery, cascade, manager and disaster recovery — byte for byte: each
// rendered table plus a sha256 of every observed run's journal (decision
// JSONL, series CSV and report counters). Run names seed the runs, so this
// also pins every spec name, label and hook a grid compiles.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGridTablesGolden
func TestGridTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("grid experiments")
	}
	opts := Options{Seed: 1, Scale: 0.02, Observe: true}
	grids := []struct {
		name string
		run  func() (*Table, error)
	}{
		{"chaos", func() (*Table, error) {
			r, err := RunChaos(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"recovery", func() (*Table, error) {
			r, err := RunRecovery(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"cascade", func() (*Table, error) {
			r, err := RunCascade(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"manager", func() (*Table, error) {
			r, err := RunManager(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"dr", func() (*Table, error) {
			r, err := runDRSized(opts, 120, 4, 58, 55, []string{"hybridmem"})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	}
	TakeArtifacts() // drop anything an earlier test journaled
	var b strings.Builder
	for _, g := range grids {
		tab, err := g.run()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&b, "== %s\n%s", g.name, tab.String())
		for _, a := range TakeArtifacts() {
			var buf bytes.Buffer
			if err := a.Journal.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if err := a.Journal.WriteSeriesCSV(&buf); err != nil {
				t.Fatal(err)
			}
			for _, c := range a.Counters {
				fmt.Fprintf(&buf, "%s=%d\n", c.Name, c.Value)
			}
			fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(buf.Bytes()), a.Name)
		}
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "golden_grid_tables.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(want) != got {
		t.Fatalf("grid tables diverged from golden:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
