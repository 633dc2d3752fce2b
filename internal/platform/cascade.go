package platform

import (
	"errors"
	"sort"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/lb"
	"hyscale/internal/obs"
	"hyscale/internal/resilience"
	"hyscale/internal/sim"
	"hyscale/internal/workload"
)

// This file is the call-graph propagation layer: when a World's Config
// declares a CallGraph (or any resilience defense), requests admitted at a
// service spawn downstream calls along the graph's edges, parents wait on
// their children (holding queue slots — back-pressure), failures cascade
// upward with fail-fast semantics, and the resilience.Manager's breakers,
// retry budgets, deadlines and shedding gate every hop. Worlds without a
// graph never construct a graphRun and execute exactly the original code.

// EdgeStats counts one call-graph edge's traffic. Conservation invariant:
// Issued == Delivered + Dropped at every instant (each issued attempt is
// classified at its admission decision).
type EdgeStats struct {
	// Issued counts call attempts on the edge, including retries and
	// breaker short-circuits.
	Issued uint64 `json:"issued"`
	// Delivered counts attempts admitted to a downstream replica.
	Delivered uint64 `json:"delivered"`
	// Dropped counts attempts that never reached a replica: breaker
	// short-circuits, no-deadline-room, shed, queue-full, routing failures.
	Dropped uint64 `json:"dropped"`
}

// CascadeStats aggregates a call-graph run's root-request outcomes and
// per-edge traffic. Conservation invariant after a drained run:
// RootGenerated == RootCompleted + RootShed + RootDeadline + RootFailed.
type CascadeStats struct {
	RootGenerated uint64 `json:"rootGenerated"`
	RootCompleted uint64 `json:"rootCompleted"`
	// RootShed counts roots refused by overload shedding or back-pressure
	// (every replica queue full).
	RootShed uint64 `json:"rootShed"`
	// RootDeadline counts roots abandoned at their deadline.
	RootDeadline uint64 `json:"rootDeadline"`
	// RootFailed counts roots lost to routing failures, replica removal, or
	// a downstream call failing permanently (fail-fast cascade).
	RootFailed uint64               `json:"rootFailed"`
	Edges      map[string]EdgeStats `json:"edges,omitempty"`
}

// EdgeKeys returns the edge keys in sorted order for deterministic output.
func (s CascadeStats) EdgeKeys() []string {
	keys := make([]string, 0, len(s.Edges))
	for k := range s.Edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// outcome classifies how a tracked request resolved.
type outcome int

const (
	outcomeCompleted outcome = iota
	outcomeShed
	outcomeDeadline
	outcomeFailed
)

// reqNode tracks one request (root or downstream call attempt) through the
// call graph.
type reqNode struct {
	req    *workload.Request
	parent *reqNode
	edge   workload.CallEdge
	slot   int
	// cont is the replica holding the request, nil before admission and
	// after the request leaves the container.
	cont     *container.Container
	pending  int
	resolved bool
}

// graphRun is a World's call-graph state: the live request tree, per-edge
// counters, and the resilience manager (which may be nil when only a graph,
// no defenses, is configured).
type graphRun struct {
	w     *World
	graph workload.CallGraph
	res   *resilience.Manager

	nodes map[uint64]*reqNode
	edges map[string]*EdgeStats

	rootGenerated uint64
	rootCompleted uint64
	rootShed      uint64
	rootDeadline  uint64
	rootFailed    uint64
}

func newGraphRun(w *World, graph workload.CallGraph, m *resilience.Manager) *graphRun {
	return &graphRun{
		w:     w,
		graph: graph,
		res:   m,
		nodes: make(map[uint64]*reqNode),
		edges: make(map[string]*EdgeStats),
	}
}

// checkServices verifies every graph endpoint is a registered service; run
// once when the World starts, after all AddService calls.
func (g *graphRun) checkServices() error {
	known := make(map[string]bool, len(g.w.byName))
	for name := range g.w.byName {
		known[name] = true
	}
	return g.graph.Validate(known)
}

// dropEdge books an admission-refused downstream attempt against its edge,
// keeping the Issued == Delivered + Dropped invariant when admit refuses a
// call (routing failure, black-holed backend, shed). Roots have no edge.
func (g *graphRun) dropEdge(n *reqNode) {
	if n.parent != nil {
		g.edgeStats(n.edge.Key()).Dropped++
	}
}

// edgeStats returns the mutable counter cell for an edge key.
func (g *graphRun) edgeStats(key string) *EdgeStats {
	es, ok := g.edges[key]
	if !ok {
		es = &EdgeStats{}
		g.edges[key] = es
	}
	return es
}

// Stats snapshots the run's cascade counters.
func (g *graphRun) Stats() CascadeStats {
	s := CascadeStats{
		RootGenerated: g.rootGenerated,
		RootCompleted: g.rootCompleted,
		RootShed:      g.rootShed,
		RootDeadline:  g.rootDeadline,
		RootFailed:    g.rootFailed,
		Edges:         make(map[string]EdgeStats, len(g.edges)),
	}
	for k, es := range g.edges {
		s.Edges[k] = *es
	}
	return s
}

// route enters one externally-generated (root) request into the graph.
func (g *graphRun) route(req *workload.Request) {
	g.rootGenerated++
	n := &reqNode{req: req}
	g.nodes[req.ID] = n
	g.admit(n)
}

// admit routes a tracked request (root or child) to a replica, applying the
// shedding and fault checks, and spawns its downstream calls on admission.
func (g *graphRun) admit(n *reqNode) {
	w := g.w
	req := n.req
	req.ExtraLatency += w.cfg.BaseLatency
	now := w.engine.Now()

	w.replicaBuf = w.ctl.AppendReplicasID(w.replicaBuf[:0], req.ServiceID)
	target, err := w.lb.RouteAt(now, req, w.replicaBuf)
	if err != nil {
		g.dropEdge(n)
		switch {
		case errors.Is(err, lb.ErrAllFull):
			// Back-pressure: the saturated tier refuses the admission.
			g.res.CountShed()
			g.finish(n, outcomeShed, now, workload.FailureConnection)
		case errors.Is(err, lb.ErrAllStarting):
			w.connFail.Starting++
			g.finish(n, outcomeFailed, now, workload.FailureConnection)
		default:
			w.connFail.Absent++
			g.finish(n, outcomeFailed, now, workload.FailureConnection)
		}
		return
	}
	if w.faults.BackendDown(now, target.Service, target.ID) {
		w.connFail.Unhealthy++
		g.dropEdge(n)
		g.finish(n, outcomeFailed, now, workload.FailureConnection)
		return
	}
	// Adaptive shedding keys off active-queue occupancy, not CPU-over-
	// allocation: replicas legitimately burst past their allocation when the
	// node has slack, but an active queue deeper than the deadline can drain
	// is doomed work whatever the CPU counters say. PhaseWait parents are
	// excluded — they hold slots, not resources.
	if lim := target.Spec.QueueLimit; lim > 0 {
		occ := float64(target.ActiveInflight()) / float64(lim)
		if g.res.ShouldShed(occ, target.ID, req.ID) {
			g.dropEdge(n)
			g.finish(n, outcomeShed, now, workload.FailureConnection)
			return
		}
	}
	if f := w.faults.SlowFactor(now, req.Service); f > 1 {
		req.RemainingCPU *= f
	}

	n.cont = target
	target.Enqueue(req)
	if n.parent != nil {
		g.edgeStats(n.edge.Key()).Delivered++
	}
	g.spawnChildren(n)
}

// spawnChildren issues the node's downstream calls per its service's
// outgoing edges. Probabilistic edges draw from a pure (seed, edge, parent)
// hash, never the engine RNG, so enabling a graph does not perturb arrivals.
func (g *graphRun) spawnChildren(n *reqNode) {
	for _, e := range g.graph.Out(n.req.Service) {
		prob := e.EffectiveProb()
		for k := 0; k < e.EffectiveCalls(); k++ {
			if n.resolved {
				return // a sibling call already failed the parent fast
			}
			if prob < 1 && resilience.Roll(g.w.cfg.Seed, "call|"+e.Key(), n.req.ID<<8|uint64(k&0xff)) >= prob {
				continue
			}
			n.pending++
			n.req.PendingChildren++
			g.issueCall(n, e, k, 1)
		}
	}
}

// issueCall issues attempt #attempt of one call slot (parent, edge, slot):
// breaker gate, deadline math, then a fresh child request through admit.
func (g *graphRun) issueCall(p *reqNode, e workload.CallEdge, slot, attempt int) {
	now := g.w.engine.Now()
	key := e.Key()
	es := g.edgeStats(key)

	if !g.res.AllowCall(now, key) {
		// Short-circuited by an open breaker: fail fast, never retried, and
		// the downstream tier sees nothing.
		es.Issued++
		es.Dropped++
		g.failFast(p, now)
		return
	}
	rt := g.w.byName[e.To]
	deadline := g.res.ChildDeadline(now, p.req.Deadline, rt.spec.Timeout)
	if deadline <= now {
		// The propagated deadline leaves no room: starting the call could
		// never help the root request.
		es.Issued++
		es.Dropped++
		g.res.CountDeadlineExceeded()
		g.failFast(p, now)
		return
	}
	es.Issued++
	g.res.RecordAttempt(p.req.Service, attempt)

	req := g.w.ids.NewRequest(&rt.spec, now)
	req.ServiceID = rt.id
	req.Deadline = deadline
	req.Edge = key
	req.ParentID = p.req.ID
	req.Attempt = attempt
	n := &reqNode{req: req, parent: p, edge: e, slot: slot}
	g.nodes[req.ID] = n
	g.admit(n)
}

// finish resolves one tracked request with a terminal outcome. Exactly one
// finish per request keeps the recorder's conservation invariant intact;
// class selects the failure class recorded for non-completions.
func (g *graphRun) finish(n *reqNode, o outcome, at time.Duration, class workload.FailureClass) {
	if n.resolved {
		return
	}
	n.resolved = true
	delete(g.nodes, n.req.ID)
	w := g.w

	if o == outcomeCompleted {
		lat := at - n.req.Arrival + n.req.ExtraLatency
		if lat < 0 {
			lat = 0
		}
		w.recorder.RecordCompletionID(n.req.ServiceID, lat)
		w.costs.ObserveCompletion(lat)
	} else {
		w.recorder.RecordFailureID(n.req.ServiceID, class)
		w.costs.ObserveFailure()
	}

	if n.parent == nil {
		switch o {
		case outcomeCompleted:
			g.rootCompleted++
		case outcomeShed:
			g.rootShed++
		case outcomeDeadline:
			g.rootDeadline++
		default:
			g.rootFailed++
		}
		return
	}

	// Downstream call attempt: feed the edge breaker, then resolve the
	// parent's call slot — completion, retry, or fail-fast cascade. Overload
	// rejections (shedding, queue back-pressure) deliberately bypass the
	// breaker: they are the downstream tier protecting itself, and counting
	// them as failure accrual turns transient overload into an OpenFor-long
	// blackout of the edge — a defense-induced outage. Breakers react to
	// genuine failures only: black-holed backends, timeouts, removals.
	if o != outcomeShed {
		g.res.RecordCallResult(at, n.edge.Key(), o == outcomeCompleted)
	}
	if o == outcomeCompleted {
		g.childSucceeded(n.parent, at)
	} else {
		g.retryOrFail(n.parent, n.edge, n.slot, n.req.Attempt)
	}
}

// childSucceeded books one resolved call slot on the parent; when the last
// slot resolves and the parent's own phases already finished (PhaseWait),
// the parent completes now — downstream latency composition.
func (g *graphRun) childSucceeded(p *reqNode, at time.Duration) {
	if p.resolved {
		return
	}
	p.pending--
	p.req.PendingChildren--
	if p.pending == 0 && p.req.Phase == workload.PhaseWait {
		if p.cont != nil {
			p.cont.Release(p.req, true)
			p.cont = nil
		}
		p.req.Phase = workload.PhaseDone
		g.finish(p, outcomeCompleted, at, workload.FailureNone)
	}
}

// retryOrFail handles a failed call attempt: re-issue after backoff when the
// retry policy, budget and attempt cap allow, otherwise fail the parent fast.
func (g *graphRun) retryOrFail(p *reqNode, e workload.CallEdge, slot, attempt int) {
	if p.resolved {
		return // orphan result; the parent already resolved another way
	}
	now := g.w.engine.Now()
	maxAttempts, backoff := g.res.RetryPolicy()
	if attempt < maxAttempts && g.res.AllowRetry(p.req.Service) {
		g.w.engine.ScheduleAfter(backoff, func(*sim.Engine) {
			if p.resolved {
				return
			}
			g.issueCall(p, e, slot, attempt+1)
		})
		return
	}
	g.failFast(p, now)
}

// failFast resolves a parent as failed the moment one of its call slots
// fails permanently (synchronous-RPC semantics): it is released from its
// replica immediately and the failure propagates to its own caller, where
// the cycle repeats — possibly as a retried call attempt.
func (g *graphRun) failFast(p *reqNode, now time.Duration) {
	if p.resolved {
		return
	}
	if p.cont != nil {
		p.cont.Release(p.req, false)
		p.cont = nil
	}
	g.finish(p, outcomeFailed, now, workload.FailureConnection)
}

// afterAdvance consumes one physics tick's completions and timeouts.
func (g *graphRun) afterAdvance(now time.Duration, res cluster.TickResult) {
	for _, done := range res.Completed {
		n, ok := g.nodes[done.Request.ID]
		if !ok {
			continue
		}
		n.cont = nil
		g.finish(n, outcomeCompleted, done.At, workload.FailureNone)
	}
	for _, r := range res.TimedOut {
		n, ok := g.nodes[r.ID]
		if !ok {
			continue
		}
		n.cont = nil // Advance already dropped it from the in-flight set
		g.res.CountDeadlineExceeded()
		g.finish(n, outcomeDeadline, now, workload.FailureConnection)
	}
}

// onRemoval resolves a request killed by its container's removal.
func (g *graphRun) onRemoval(r *workload.Request) {
	n, ok := g.nodes[r.ID]
	if !ok {
		// Untracked (already resolved); keep the legacy accounting.
		g.w.recorder.RecordFailureID(r.ServiceID, workload.FailureRemoval)
		g.w.costs.ObserveFailure()
		return
	}
	n.cont = nil
	g.finish(n, outcomeFailed, g.w.engine.Now(), workload.FailureRemoval)
}

// breakerEventKind maps a breaker transition to its journal event kind.
func breakerEventKind(to resilience.BreakerState) obs.EventKind {
	switch to {
	case resilience.StateOpen:
		return obs.EventBreakerOpen
	case resilience.StateHalfOpen:
		return obs.EventBreakerHalfOpen
	default:
		return obs.EventBreakerClose
	}
}
