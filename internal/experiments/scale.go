package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// The scale experiment is the perf-trajectory harness behind ROADMAP item 1:
// it sweeps the cluster far past the paper's 24-node / 15-service world and
// records how many simulated seconds each configuration executes per
// wall-clock second. The ratio is the single number that makes hot-path work
// provable across PRs — cmd/hyscale-bench's -perf mode embeds these points
// in BENCH_<n>.json so every optimization pass leaves a recorded trajectory.

// ScalePoint is one node-count × service-count configuration's measurement.
type ScalePoint struct {
	Nodes    int `json:"nodes"`
	Services int `json:"services"`
	// Zones is the control-plane shard count (0 or 1 = the classic single
	// central monitor).
	Zones int `json:"zones,omitempty"`

	// SimSeconds is the simulated horizon the run covered.
	SimSeconds float64 `json:"simSeconds"`
	// WallSeconds is the wall-clock time the run took.
	WallSeconds float64 `json:"wallSeconds"`
	// SimRatio is SimSeconds / WallSeconds — simulated seconds executed per
	// wall second, the headline scaling metric.
	SimRatio float64 `json:"simRatio"`

	// Requests is the total client requests the run generated.
	Requests uint64 `json:"requests"`
	// ScaleOuts counts autoscaler scale-out actions, as a sanity signal that
	// the control plane actually worked at this scale.
	ScaleOuts uint64 `json:"scaleOuts"`
}

// ScaleResult is the sweep across all configurations.
type ScaleResult struct {
	Points []ScalePoint
}

// Point returns the measurement for a nodes/services pair with a single-zone
// control plane, or nil.
func (r *ScaleResult) Point(nodes, services int) *ScalePoint {
	for i := range r.Points {
		if r.Points[i].Nodes == nodes && r.Points[i].Services == services && r.Points[i].Zones <= 1 {
			return &r.Points[i]
		}
	}
	return nil
}

// Table renders the sweep.
func (r *ScaleResult) Table() *Table {
	t := &Table{
		Title:   "Scale sweep: sim-seconds per wall-second by cluster size",
		Columns: []string{"nodes", "services", "zones", "sim s", "wall s", "sim/wall", "requests", "scale-outs"},
	}
	for _, p := range r.Points {
		zones := p.Zones
		if zones < 1 {
			zones = 1
		}
		t.AddRow(
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.Services),
			fmt.Sprintf("%d", zones),
			fmt.Sprintf("%.0f", p.SimSeconds),
			fmt.Sprintf("%.2f", p.WallSeconds),
			fmt.Sprintf("%.1f", p.SimRatio),
			fmt.Sprintf("%d", p.Requests),
			fmt.Sprintf("%d", p.ScaleOuts),
		)
	}
	return t
}

// ScaleConfig is one sweep configuration: cluster size plus the control-plane
// shard count (Zones <= 1 runs the classic single monitor).
type ScaleConfig struct {
	Nodes    int
	Services int
	Zones    int
}

// ScaleGrid is the pinned sweep: the paper's 24/15 testbed, two intermediate
// datacenter slices, the 1,000-node / 500-service north-star point of
// ROADMAP item 1 — and the zoned control plane at that same point plus the
// 5,000-node / 2,000-service configuration only the sharded monitor makes
// tractable.
func ScaleGrid() []ScaleConfig {
	return []ScaleConfig{
		{Nodes: 24, Services: 15},
		{Nodes: 96, Services: 60},
		{Nodes: 200, Services: 100},
		{Nodes: 1000, Services: 500},
		{Nodes: 1000, Services: 500, Zones: 8},
		{Nodes: 5000, Services: 2000, Zones: 16},
	}
}

// scaleServices builds n CPU-bound services with per-service variation drawn
// deterministically from seed, shaped like the macro workload but with a
// bounded replica ceiling so the biggest grid points stay placeable.
func scaleServices(n int, seed int64) []runner.ServiceRun {
	rng := rand.New(rand.NewSource(seed))
	out := make([]runner.ServiceRun, 0, n)
	for i := 0; i < n; i++ {
		spec := workload.ServiceSpec{
			Name: fmt.Sprintf("svc-%03d", i), Kind: workload.KindCPUBound,
			CPUPerRequest:         0.05 + rng.Float64()*0.05,
			CPUOverheadPerRequest: 0.01,
			MemPerRequest:         2,
			BackgroundCPU:         0.02,
			BaselineMemMB:         200,
			InitialReplicaCPU:     1.0,
			InitialReplicaMemMB:   512,
			MinReplicas:           1,
			MaxReplicas:           4,
			Timeout:               30 * time.Second,
		}
		baseRPS := 8 + rng.Float64()*8
		out = append(out, runner.ServiceRun{
			Spec:   spec,
			Target: 0.5,
			Load: runner.LoadSpec{
				Type:      "wave",
				Base:      baseRPS,
				Amplitude: 0.3,
				Period:    runner.Duration(4 * time.Minute),
				Phase:     runner.Duration(float64(4*time.Minute) * float64(i) / float64(n)),
			},
		})
	}
	return out
}

// scaleDuration returns the per-point simulated horizon: two minutes at
// Scale=1, enough for ~24 monitor periods and a full load-wave cycle.
func scaleDuration(opts Options) time.Duration {
	return time.Duration(float64(2*time.Minute) * opts.Scale)
}

// RunScale sweeps ScaleGrid and measures sim-seconds-per-wall-second at each
// point. Runs execute sequentially (never in parallel) so wall-clock numbers
// measure single-run speed, not scheduler contention — the -parallel flag is
// deliberately ignored here.
func RunScale(opts Options) (*ScaleResult, error) {
	opts = opts.scaled()
	duration := scaleDuration(opts)
	res := &ScaleResult{}
	for _, g := range ScaleGrid() {
		nodes, services := g.Nodes, g.Services
		cfg := platform.DefaultConfig(opts.Seed)
		cfg.Nodes = nodes
		name := fmt.Sprintf("scale/%dn-%ds", nodes, services)
		if g.Zones > 1 {
			cfg.Zones = g.Zones
			name = fmt.Sprintf("%s-%dz", name, g.Zones)
		}
		spec := runner.RunSpec{
			Name:      name,
			Seed:      opts.Seed,
			Platform:  cfg,
			Algorithm: "hybridmem",
			Duration:  duration,
			Services:  scaleServices(services, opts.Seed),
		}
		// Run through execute (not raw runner.Execute) so -report/-timing see
		// scale runs like any other experiment, but force Parallel=1.
		seq := opts
		seq.Parallel = 1
		results, err := execute([]runner.RunSpec{spec}, seq)
		if err != nil {
			return nil, err
		}
		r := results[0]
		wall := r.Elapsed.Seconds()
		p := ScalePoint{
			Nodes:       nodes,
			Services:    services,
			Zones:       g.Zones,
			SimSeconds:  duration.Seconds(),
			WallSeconds: wall,
			Requests:    r.Summary.Requests,
			ScaleOuts:   r.Actions.ScaleOuts,
		}
		if wall > 0 {
			p.SimRatio = p.SimSeconds / wall
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
