package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The chaos experiment replays Fig. 6b's mixed-burst workload (15 CPU-bound
// services under high-burst load) while the control plane degrades:
// `docker update`s fail, replica starts fail or stall, stats queries drop
// and backends black-hole connections. It sweeps the fault rate and, at the
// highest rate, re-runs with the hardening (retry/backoff, stale-snapshot
// degradation, LB health checks) switched off — so the table directly
// prices what the resilience machinery buys per algorithm.

// ChaosFaults is the base fault mix the chaos experiment scales; rate 1.0
// applies it as-is. Exported so tests and the facade can reuse it.
func ChaosFaults(seed int64) faults.Config {
	return faults.Config{
		Seed:             seed,
		VerticalFailProb: 0.25,
		StartFailProb:    0.20,
		StartSlowProb:    0.25,
		StartSlowBy:      8 * time.Second,
		StatsDropProb:    0.25,
		BackendDownProb:  0.15,
		BackendDownFor:   10 * time.Second,
		BackendDownEvery: time.Minute,
	}
}

// ChaosOutcome is one (fault rate, algorithm, hardening) cell.
type ChaosOutcome struct {
	Algorithm string
	FaultRate float64
	Hardened  bool
	Summary   metrics.Summary
	Actions   monitor.ActionCounts
	ConnFail  platform.ConnFailureBreakdown
	// UptimePercent is the fraction of service-seconds with at least one
	// replica that was both routable and not black-holed — the §VI uptime
	// metric under chaos.
	UptimePercent float64
}

// ChaosResult is the material behind the resilience comparison, keyed by
// chaosName.
type ChaosResult = GridResult[ChaosOutcome]

// HookChaosUptime is the registered runner hook attaching the availability
// sampler alone; its finalizer reports Extra["availabilityPercent"].
const HookChaosUptime = "chaos-uptime"

func init() { registerAvailabilityHook(HookChaosUptime, nil) }

// chaosCell parameterises one chaos run.
type chaosCell struct {
	algorithm string
	rate      float64
	hardened  bool
}

// chaosName is the spec name (and result key) of one chaos cell.
func chaosName(algorithm string, rate float64, hardened bool) string {
	h := "hardened"
	if !hardened {
		h = "unhardened"
	}
	return fmt.Sprintf("chaos/%s-r%.1f-%s", algorithm, rate, h)
}

// compile turns a cell into a RunSpec: the Fig. 6b workload plus a scaled
// fault mix, optional hardening kill-switch, and the uptime probe hook.
func (c chaosCell) compile(services []serviceLoad, base faults.Config, opts Options) runner.RunSpec {
	cfg := platform.DefaultConfig(opts.Seed)
	cfg.Faults = base.Scaled(c.rate)
	cfg.HardeningOff = !c.hardened
	spec := runner.RunSpec{
		Name:      chaosName(c.algorithm, c.rate, c.hardened),
		Seed:      opts.Seed,
		Platform:  cfg,
		Algorithm: c.algorithm,
		Duration:  macroDuration(opts),
		Hooks:     []string{HookChaosUptime},
	}
	spec.Services = serviceRuns(services)
	return spec
}

// chaosGrid runs chaos cells over the given service set: one row per cell
// with failed-request %, uptime and the hardening counters.
func chaosGrid(services []serviceLoad, opts Options) grid[chaosCell, ChaosOutcome] {
	base := ChaosFaults(opts.Seed + 1000)
	return grid[chaosCell, ChaosOutcome]{
		title: "Chaos: CPU-bound high-burst under control-plane faults",
		columns: []string{"fault rate", "algorithm", "hardened", "failed %", "uptime %",
			"mean response", "retries", "abandoned", "stale snaps"},
		compile: func(c chaosCell) runner.RunSpec { return c.compile(services, base, opts) },
		fold: func(c chaosCell, r runner.Result) ChaosOutcome {
			return ChaosOutcome{
				Algorithm:     c.algorithm,
				FaultRate:     c.rate,
				Hardened:      c.hardened,
				Summary:       r.Summary,
				Actions:       r.Actions,
				ConnFail:      r.ConnFail,
				UptimePercent: r.Extra["availabilityPercent"],
			}
		},
		row: func(o *ChaosOutcome) []string {
			hardened := "yes"
			if !o.Hardened {
				hardened = "no"
			}
			return []string{
				fmt.Sprintf("%.1f", o.FaultRate),
				o.Algorithm,
				hardened,
				fmt.Sprintf("%.2f", o.Summary.FailedPercent()),
				fmt.Sprintf("%.2f", o.UptimePercent),
				fmtDur(o.Summary.MeanLatency),
				fmt.Sprintf("%d", o.Actions.Retries),
				fmt.Sprintf("%d", o.Actions.AbandonedActions),
				fmt.Sprintf("%d", o.Actions.StaleSnapshots),
			}
		},
	}
}

// RunChaos replays Fig. 6b's high-burst CPU-bound workload under a fault
// sweep (rates 0, 0.5, 1.0 with hardening on) plus an unhardened run at
// rate 1.0 per algorithm, tabulating failed-request %, uptime and retry
// volume.
func RunChaos(opts Options) (*ChaosResult, error) {
	opts = opts.scaled()
	services := makeServices(workload.KindCPUBound, 15, HighBurst, opts.Seed)
	algorithms := []string{"kubernetes", "hybrid", "hybridmem"}
	var cells []chaosCell
	for _, rate := range []float64{0, 0.5, 1.0} {
		for _, a := range algorithms {
			cells = append(cells, chaosCell{algorithm: a, rate: rate, hardened: true})
		}
	}
	for _, a := range algorithms {
		cells = append(cells, chaosCell{algorithm: a, rate: 1.0, hardened: false})
	}
	return chaosGrid(services, opts).run(cells, opts)
}
