package platform

// Request ownership: a plain world releases every request exactly once, at
// its terminal point, so the allocator's requests are always either in
// flight in a container or on the free list — never both, never twice, and
// never neither. A double release would hand one request to two arrivals; a
// missed one would only leak, but both break the ledger checked here.

import (
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// scaleInAt removes the newest replica of one service at the first poll at
// or after a given time, killing the requests in flight on it.
type scaleInAt struct {
	service string
	at      time.Duration
	done    bool
}

func (s *scaleInAt) Name() string { return "scale-in-at" }

func (s *scaleInAt) Decide(snap core.Snapshot) core.Plan {
	if s.done || snap.Now < s.at {
		return core.Plan{}
	}
	for _, svc := range snap.Services {
		if n := len(svc.Replicas); svc.Info.Name == s.service && n > 0 {
			s.done = true
			return core.Plan{Actions: []core.Action{core.ScaleIn{ContainerID: svc.Replicas[n-1].ContainerID}}}
		}
	}
	return core.Plan{}
}

// checkRequestLedger asserts that every carved request is in flight or free,
// exactly once.
func checkRequestLedger(t *testing.T, w *World) {
	t.Helper()
	carved, inflight, free := w.requestLedger()
	if carved != len(inflight)+len(free) {
		t.Fatalf("at %v: %d requests carved, but %d in flight + %d free", w.engine.Now(), carved, len(inflight), len(free))
	}
	held := make(map[*workload.Request]bool, carved)
	for _, r := range inflight {
		if held[r] {
			t.Fatalf("at %v: request %d is in flight twice", w.engine.Now(), r.ID)
		}
		held[r] = true
	}
	freed := make(map[*workload.Request]bool, len(free))
	for _, r := range free {
		if held[r] {
			t.Fatalf("at %v: request %d is both in flight and free", w.engine.Now(), r.ID)
		}
		if freed[r] {
			t.Fatalf("at %v: a request is on the free list twice", w.engine.Now())
		}
		freed[r] = true
	}
}

// TestRequestOwnershipLedger drives a plain world through every terminal
// point a request can reach — completion, timeout, a route with no backend
// or only starting ones, a black-holing backend, a scale-in, a node failure
// — with injected bursts on top of generated load, and checks the ledger
// after every simulated second.
func TestRequestOwnershipLedger(t *testing.T) {
	cfg := smallConfig(1)
	cfg.HardeningOff = true // route blind into the black hole below
	cfg.Faults = faults.Config{Windows: []faults.Window{
		{Kind: faults.KindBackend, Target: "c", From: 5 * time.Second, To: 8 * time.Second},
	}}
	w, err := New(cfg, &scaleInAt{service: "a", at: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// a has two replicas, one of which is scaled in at 10 s, and a short
	// timeout that bursts on the survivor exceed.
	a := cpuSpec("a")
	a.CPUPerRequest, a.MinReplicas, a.Timeout = 0.2, 2, 2*time.Second
	for _, s := range []struct {
		spec workload.ServiceSpec
		rps  float64
	}{{a, 8}, {cpuSpec("b"), 5}, {cpuSpec("c"), 5}} {
		if err := w.AddService(s.spec, 0.5, loadgen.Constant{RPS: s.rps}); err != nil {
			t.Fatal(err)
		}
	}
	bNode := w.Control().AppendReplicas(nil, "b")[0].NodeID
	if err := w.ScheduleNodeFailure(15*time.Second, bNode); err != nil {
		t.Fatal(err)
	}

	var removalsBefore uint64
	for sec := 1; sec <= 40; sec++ {
		now := w.engine.Now()
		switch sec {
		case 3, 10:
			// The second burst is still in flight at the 10 s scale-in.
			if err := w.InjectRequests(now, 500*time.Millisecond, "a", 40); err != nil {
				t.Fatal(err)
			}
		case 15:
			// A burst still in flight when b's node fails at 15 s.
			if err := w.InjectRequests(now, 500*time.Millisecond, "b", 40); err != nil {
				t.Fatal(err)
			}
			removalsBefore = w.Summary().RemovalFailures
		case 20:
			// b has been without a replica since its node failed; a fresh one
			// starts now and stays unroutable for StartDelay.
			var node string
			for _, n := range w.Cluster().Nodes() {
				node = n.ID()
			}
			if err := w.DeployReplica("b", node, resources.Vector{CPU: 1, MemMB: 512}); err != nil {
				t.Fatal(err)
			}
		case 25:
			// Far more work than a's surviving replica finishes before the
			// timeout.
			if err := w.InjectRequests(now, 100*time.Millisecond, "a", 200); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Run(time.Duration(sec) * time.Second); err != nil {
			t.Fatal(err)
		}
		checkRequestLedger(t, w)
		if sec == 10 && w.Summary().RemovalFailures == 0 {
			t.Fatal("the scale-in of a killed no requests")
		}
		if sec == 15 && w.Summary().RemovalFailures == removalsBefore {
			t.Fatal("the node failure killed no requests")
		}
	}

	s, cf := w.Summary(), w.ConnFailures()
	if s.Completed == 0 || cf.Absent == 0 || cf.Starting == 0 || cf.Unhealthy == 0 {
		t.Errorf("completed %d, route failures %+v: every terminal point must be reached", s.Completed, cf)
	}
	if timeouts := s.ConnectionFailures - cf.Absent - cf.Starting - cf.Unhealthy; timeouts == 0 {
		t.Error("no request timed out")
	}
	if carved, _, _ := w.requestLedger(); uint64(carved) >= s.Requests {
		t.Errorf("%d requests carved for %d outcomes: released requests were not reused", carved, s.Requests)
	}
}
