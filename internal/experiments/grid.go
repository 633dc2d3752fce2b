package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/sim"
)

// A grid is one experiment in the shape of the paper's §VI evaluation: a
// list of cells, each compiled to a self-contained RunSpec, executed as one
// batch, and folded into a typed outcome that renders as one table row. An
// experiment supplies only what is its own — its cells, the compile and fold
// functions, and its columns — and the grid does the rest.
type grid[C, O any] struct {
	title   string
	columns []string
	compile func(C) runner.RunSpec
	fold    func(C, runner.Result) O
	row     func(*O) []string
}

// run compiles every cell, fans the specs through the executor and folds
// the results in cell order.
func (g grid[C, O]) run(cells []C, opts Options) (*GridResult[O], error) {
	specs := make([]runner.RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = g.compile(c)
	}
	results, err := execute(specs, opts)
	if err != nil {
		return nil, err
	}
	res := &GridResult[O]{
		Name:    g.title,
		columns: g.columns,
		row:     g.row,
		index:   make(map[string]int, len(cells)),
	}
	for i, c := range cells {
		res.index[specs[i].Name] = i
		res.Outcomes = append(res.Outcomes, g.fold(c, results[i]))
	}
	return res, nil
}

// GridResult is the material behind one grid experiment: one outcome per
// cell, in cell order.
type GridResult[O any] struct {
	Name     string
	Outcomes []O
	columns  []string
	row      func(*O) []string
	index    map[string]int
}

// Outcome returns the cell whose spec was named key (e.g.
// "chaos/hybridmem-r1.0-hardened"), or nil.
func (r *GridResult[O]) Outcome(key string) *O {
	i, ok := r.index[key]
	if !ok {
		return nil
	}
	return &r.Outcomes[i]
}

// Table renders one row per outcome.
func (r *GridResult[O]) Table() *Table {
	t := &Table{Title: r.Name, Columns: r.columns}
	for i := range r.Outcomes {
		t.AddRow(r.row(&r.Outcomes[i])...)
	}
	return t
}

// availability counts service-seconds in which a service had at least one
// replica that was routable and not inside an injected backend outage — the
// §VI uptime metric, shared by the chaos, recovery and DR probes. It reads
// the control plane, so it covers zoned worlds and spillover shards too.
type availability struct {
	w         *platform.World
	total, up uint64
	buf       []*container.Container
}

// sample counts one service-second for service at now and returns the
// service's live replicas (valid until the next call).
func (a *availability) sample(now time.Duration, service string) []*container.Container {
	a.buf = a.w.Control().AppendReplicas(a.buf[:0], service)
	a.total++
	inj := a.w.FaultInjector()
	for _, c := range a.buf {
		if c.Routable() && !inj.BackendDown(now, c.Service, c.ID) {
			a.up++
			break
		}
	}
	return a.buf
}

// percent returns availability as a percentage (100 when never sampled).
func (a *availability) percent() float64 {
	if a.total == 0 {
		return 100
	}
	return 100 * float64(a.up) / float64(a.total)
}

// A criterion is an experiment's own per-second judgement layered on the
// availability sampler: observe sees each service's live replicas, settle
// closes the sample, and report harvests the criterion's figures.
type criterion interface {
	observe(now time.Duration, service string, replicas []*container.Container)
	settle(now time.Duration)
	report(extra map[string]float64)
}

// registerAvailabilityHook registers a runner hook that samples every
// service of the spec once per simulated second. Its finalizer reports
// Extra["availabilityPercent"] plus whatever the criterion built by crit
// (nil for availability alone) adds.
func registerAvailabilityHook(name string, crit func(runner.RunSpec) criterion) {
	runner.RegisterHook(name, func(w *platform.World, spec runner.RunSpec) (runner.Finalizer, error) {
		a := &availability{w: w}
		var c criterion
		if crit != nil {
			c = crit(spec)
		}
		err := w.Engine().SchedulePeriodic(time.Second, time.Second, func(e *sim.Engine) {
			now := e.Now()
			for _, s := range spec.Services {
				replicas := a.sample(now, s.Spec.Name)
				if c != nil {
					c.observe(now, s.Spec.Name, replicas)
				}
			}
			if c != nil {
				c.settle(now)
			}
		})
		if err != nil {
			return nil, err
		}
		return func(res *runner.Result) {
			extra := extraOf(res)
			extra["availabilityPercent"] = a.percent()
			if c != nil {
				c.report(extra)
			}
		}, nil
	})
}

// extraOf returns the result's hook-measurement map, creating it if needed.
func extraOf(res *runner.Result) map[string]float64 {
	if res.Extra == nil {
		res.Extra = make(map[string]float64)
	}
	return res.Extra
}

// reconvergence tracks when a failure criterion judged the run recovered:
// failAt is the first failure instant and at the recovery instant (both -1
// until known). Criteria embed it for its before and report methods.
type reconvergence struct {
	failAt, at time.Duration
}

// before reports whether now precedes the first failure (always, when the
// spec schedules none).
func (r reconvergence) before(now time.Duration) bool { return r.failAt < 0 || now < r.failAt }

// report writes Extra["reconvergeSeconds"]: the time from failure to
// recovery, or -1 when the run never reconverged within its horizon.
func (r reconvergence) report(extra map[string]float64) {
	s := -1.0
	if r.at >= 0 {
		s = (r.at - r.failAt).Seconds()
	}
	extra["reconvergeSeconds"] = s
}

// fmtSeconds renders a reconvergence or recovery time, "-" for never.
func fmtSeconds(s float64) string {
	if s < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0fs", s)
}
