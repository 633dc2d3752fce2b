// Command hyscale-bench regenerates every table and figure of the paper's
// evaluation. Run with -all to reproduce the whole evaluation and emit a
// markdown report (the source of EXPERIMENTS.md), or with -exp to run a
// single experiment:
//
//	hyscale-bench -exp fig2            # §III-A CPU scaling
//	hyscale-bench -exp fig6 -scale 0.2 # Fig. 6 at 20 % duration
//	hyscale-bench -all -md report.md   # full evaluation + markdown report
//
// -report DIR additionally journals every run's scaling decisions and
// per-service time series (see internal/obs) and writes a report directory:
// decisions/<run>.jsonl, series/<run>.csv, and report.md with sparkline
// charts and decision timelines. Artifact bytes are identical for any
// -parallel worker count.
//
// -perf runs the pinned performance suite instead of an experiment and
// writes a BENCH_<n>.json report (see internal/perf and DESIGN.md §12);
// -cpuprofile/-memprofile capture pprof profiles of whatever mode ran.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hyscale/internal/experiments"
	"hyscale/internal/obs"
	"hyscale/internal/perf"
)

func main() { os.Exit(realMain()) }

// realMain carries the exit code back to main so deferred profile writers
// run on every path; a bare os.Exit would silently truncate the profiles.
func realMain() int {
	var (
		exp        = flag.String("exp", "", "comma-separated experiments to run: "+strings.Join(catalogIDs(false), "|"))
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.Float64("scale", 1.0, "duration scale (1.0 = paper-sized, one hour macro runs)")
		seed       = flag.Int64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", 0, "max simulation runs in flight (<=0 uses GOMAXPROCS); results are identical for any value")
		md         = flag.String("md", "", "also write a markdown report to this file")
		csv        = flag.String("csv", "", "also write each table as CSV into this directory")
		report     = flag.String("report", "", "journal every run and write decision logs, time-series CSVs and a rendered report into this directory")
		timing     = flag.Bool("timing", true, "print per-run wall-clock timings after each experiment")
		perfMode   = flag.Bool("perf", false, "run the pinned performance suite and write a BENCH_<n>.json report instead of an experiment")
		perfOut    = flag.String("perf-out", "BENCH_8.json", "output path for the -perf report")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if !*all && *exp == "" && !*perfMode {
		fmt.Fprintln(os.Stderr, "usage: hyscale-bench -all | -exp <id> | -perf [-scale S] [-seed N] [-parallel N] [-md file] [-report dir]")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // snapshot live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			}
		}()
	}

	if *perfMode {
		return runPerf(*seed, *scale, *perfOut)
	}

	opts := experiments.Options{Seed: *seed, Scale: *scale, Parallel: *parallel, Observe: *report != ""}
	ids := catalogIDs(true)
	if !*all {
		ids = strings.Split(*exp, ",")
	}
	selected := make([]experiment, len(ids))
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		e, err := lookup(ids[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			return 1
		}
		selected[i] = e
	}

	// All stdout goes through one buffered writer, and each experiment's
	// tables and timing footer are assembled into a single block before being
	// written, so nothing can interleave mid-experiment regardless of
	// -parallel.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var tables []*experiments.Table
	start := time.Now()
	for _, e := range selected {
		expStart := time.Now()
		ts, err := e.run(opts)
		if err != nil {
			out.Flush()
			fmt.Fprintf(os.Stderr, "hyscale-bench: %s: %v\n", e.id, err)
			return 1
		}
		var block strings.Builder
		for _, t := range ts {
			block.WriteString(t.String())
			block.WriteByte('\n')
			tables = append(tables, t)
		}
		// Timing is measurement metadata, printed to stdout only: tables and
		// the -md report stay byte-identical across -parallel settings.
		runTimings := experiments.TakeTimings()
		if *timing {
			var runTotal time.Duration
			for _, rt := range runTimings {
				runTotal += rt.Elapsed
			}
			fmt.Fprintf(&block, "%s: %d runs, %v run-time in %v wall\n\n",
				e.id, len(runTimings), runTotal.Round(time.Millisecond),
				time.Since(expStart).Round(time.Millisecond))
		}
		out.WriteString(block.String())
		out.Flush()
	}
	fmt.Fprintf(out, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	out.Flush()

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: %v\n", err)
			return 1
		}
		for _, t := range tables {
			path := filepath.Join(*csv, t.Slug()+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "hyscale-bench: writing %s: %v\n", path, err)
				return 1
			}
		}
		fmt.Fprintf(out, "wrote %d CSV files to %s\n", len(tables), *csv)
		out.Flush()
	}

	if *md != "" {
		var b strings.Builder
		b.WriteString("# HyScale reproduction report\n\n")
		fmt.Fprintf(&b, "Generated by `hyscale-bench -all -scale %g -seed %d`.\n\n", *scale, *seed)
		for _, t := range tables {
			b.WriteString(t.Markdown())
			b.WriteString("\n")
		}
		if err := os.WriteFile(*md, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: writing %s: %v\n", *md, err)
			return 1
		}
		fmt.Fprintf(out, "wrote %s\n", *md)
		out.Flush()
	}

	if *report != "" {
		runs := experiments.TakeArtifacts()
		if err := obs.WriteReportDir(*report, reproduceCommand(*all, ids, *scale, *seed, *report), runs); err != nil {
			fmt.Fprintf(os.Stderr, "hyscale-bench: report: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "wrote report for %d runs to %s\n", len(runs), *report)
		out.Flush()
	}
	return 0
}

// runPerf executes the pinned performance suite and writes the JSON report.
func runPerf(seed int64, scale float64, outPath string) int {
	rep, err := perf.Run(perf.Options{Seed: seed, Scale: scale, PR: 8})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyscale-bench: perf: %v\n", err)
		return 1
	}
	b, err := rep.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyscale-bench: perf: %v\n", err)
		return 1
	}
	if err := os.WriteFile(outPath, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "hyscale-bench: perf: %v\n", err)
		return 1
	}
	fmt.Print(rep.Summary())
	fmt.Printf("wrote %s\n", outPath)
	return 0
}

// reproduceCommand reconstructs the canonical command line that regenerates a
// report directory. It deliberately omits -parallel: artifacts are identical
// for any worker count, and the quoted command must be too.
func reproduceCommand(all bool, ids []string, scale float64, seed int64, dir string) string {
	sel := "-all"
	if !all {
		sel = "-exp " + strings.Join(ids, ",")
	}
	return fmt.Sprintf("hyscale-bench %s -scale %g -seed %d -report %s", sel, scale, seed, dir)
}

// experiment is one -exp id and the runner that renders its tables.
type experiment struct {
	id  string
	run func(experiments.Options) ([]*experiments.Table, error)
	// expOnly keeps the id out of -all: "macro" repeats fig6 as the CI
	// smoke target, and "scale" is the datacenter sweep behind -perf.
	expOnly bool
}

// catalog lists every experiment; -all runs the ones not marked expOnly in
// this order, which is also the section order of EXPERIMENTS.md.
var catalog = []experiment{
	{id: "fig2", run: table(experiments.RunFig2)},
	{id: "mem", run: table(experiments.RunMemScaling)},
	{id: "fig3", run: table(experiments.RunFig3)},
	{id: "fig6", run: shapes(experiments.RunFig6)},
	{id: "fig7", run: shapes(experiments.RunFig7)},
	{id: "fig8", run: shapes(experiments.RunFig8)},
	{id: "fig9", run: table(func(o experiments.Options) (*experiments.Fig9Result, error) {
		return experiments.RunFig9(nil, o)
	})},
	{id: "fig10", run: table(func(o experiments.Options) (*experiments.MacroResult, error) {
		return experiments.RunFig10(nil, o)
	})},
	{id: "ablation", run: costTable(experiments.RunAblation)},
	{id: "monitorperiod", run: costTable(experiments.RunMonitorPeriodSensitivity)},
	{id: "placement", run: costTable(experiments.RunPlacement)},
	{id: "churn", run: costTable(experiments.RunNodeChurn)},
	{id: "stateful", run: costTable(experiments.RunStateful)},
	{id: "fig3sweep", run: table(experiments.RunFig3Sweep)},
	{id: "targetutil", run: table(experiments.RunTargetUtilSweep)},
	{id: "hetero", run: costTable(experiments.RunHeterogeneous)},
	{id: "predictive", run: costTable(experiments.RunPredictive)},
	{id: "lbpolicy", run: costTable(experiments.RunLBPolicy)},
	{id: "chaos", run: table(experiments.RunChaos)},
	{id: "recovery", run: table(experiments.RunRecovery)},
	{id: "cascade", run: table(experiments.RunCascade)},
	{id: "manager", run: table(experiments.RunManager)},
	{id: "dr", run: table(experiments.RunDR)},
	{id: "macro", run: shapes(experiments.RunFig6), expOnly: true},
	{id: "scale", run: table(experiments.RunScale), expOnly: true},
}

// lookup returns the catalog entry for id.
func lookup(id string) (experiment, error) {
	for _, e := range catalog {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// catalogIDs lists the catalog's ids in order, optionally only the -all set.
func catalogIDs(allOnly bool) []string {
	var ids []string
	for _, e := range catalog {
		if !allOnly || !e.expOnly {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// table adapts an experiment whose result renders one table.
func table[R interface{ Table() *experiments.Table }](run func(experiments.Options) (R, error)) func(experiments.Options) ([]*experiments.Table, error) {
	return func(opts experiments.Options) ([]*experiments.Table, error) {
		r, err := run(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{r.Table()}, nil
	}
}

// costTable adapts a macro experiment reported with its cost columns.
func costTable(run func(experiments.Options) (*experiments.MacroResult, error)) func(experiments.Options) ([]*experiments.Table, error) {
	return func(opts experiments.Options) ([]*experiments.Table, error) {
		r, err := run(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.CostTableFor(r)}, nil
	}
}

// shapes adapts a macro experiment run under both §VI load shapes.
func shapes(run func(experiments.LoadShape, experiments.Options) (*experiments.MacroResult, error)) func(experiments.Options) ([]*experiments.Table, error) {
	return func(opts experiments.Options) ([]*experiments.Table, error) {
		var tables []*experiments.Table
		for _, shape := range []experiments.LoadShape{experiments.LowBurst, experiments.HighBurst} {
			r, err := run(shape, opts)
			if err != nil {
				return nil, err
			}
			tables = append(tables, r.Table())
		}
		return tables, nil
	}
}
