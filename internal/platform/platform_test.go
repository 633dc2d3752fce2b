package platform

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/loadgen"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

func cpuSpec(name string) workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: name, Kind: workload.KindCPUBound,
		CPUPerRequest: 0.1, MemPerRequest: 4, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 1, MaxReplicas: 6, Timeout: 10 * time.Second,
	}
}

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Nodes = 4
	cfg.BaseLatency = 0
	cfg.DistributionOverhead = 0
	return cfg
}

func TestWorldRunCompletesRequests(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddService(cpuSpec("a"), 0.5, loadgen.Constant{RPS: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	// ~5 rps for 30 s, minus the tail still in flight.
	if s.Completed < 120 {
		t.Errorf("completed = %d, want >= 120", s.Completed)
	}
	if s.FailedPercent() > 1 {
		t.Errorf("failed = %.2f%%, want ~0", s.FailedPercent())
	}
	if s.MeanLatency <= 0 || s.MeanLatency > time.Second {
		t.Errorf("mean latency = %v, implausible", s.MeanLatency)
	}
}

func TestWorldValidation(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Nodes = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("zero nodes accepted")
	}
	cfg = smallConfig(1)
	cfg.Tick = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("zero tick accepted")
	}
}

func TestInjectRequestsFixedCount(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddService(cpuSpec("a"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(time.Second, 10*time.Second, "a", 50); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(0, time.Second, "ghost", 1); err == nil {
		t.Error("unknown service accepted")
	}
	if err := w.RunUntilDrained(11*time.Second, time.Minute); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.Requests != 50 {
		t.Errorf("requests = %d, want 50", s.Requests)
	}
	if s.Completed != 50 {
		t.Errorf("completed = %d, want 50", s.Completed)
	}
}

func TestNoBackendIsConnectionFailure(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddService(cpuSpec("a"), 0, nil); err != nil {
		t.Fatal(err)
	}
	// Kill the only replica out from under the balancer.
	for _, rep := range w.Monitor().Replicas("a") {
		_, node := w.Cluster().FindContainer(rep.ID)
		node.RemoveContainer(rep.ID)
	}
	if err := w.InjectRequests(time.Second, time.Second, "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.ConnectionFailures != 10 {
		t.Errorf("connection failures = %d, want 10", s.ConnectionFailures)
	}
}

func TestTimeoutsAreConnectionFailures(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	spec.CPUPerRequest = 1000 // can never finish before the 10s timeout
	if err := w.AddService(spec, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(time.Second, time.Second, "a", 3); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.ConnectionFailures != 3 {
		t.Errorf("connection failures = %d, want 3 (timeouts)", s.ConnectionFailures)
	}
}

// scaleInOnce removes one replica on its first decision, to exercise
// removal-failure accounting end to end.
type scaleInOnce struct{ done bool }

func (s *scaleInOnce) Name() string { return "scale-in-once" }
func (s *scaleInOnce) Decide(snap core.Snapshot) core.Plan {
	if s.done || len(snap.Services) == 0 || len(snap.Services[0].Replicas) == 0 {
		return core.Plan{}
	}
	s.done = true
	return core.Plan{Actions: []core.Action{
		core.ScaleIn{ContainerID: snap.Services[0].Replicas[0].ContainerID},
	}}
}

func TestRemovalFailuresRecorded(t *testing.T) {
	cfg := smallConfig(1)
	cfg.MonitorPeriod = 2 * time.Second
	w, err := New(cfg, &scaleInOnce{})
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	spec.CPUPerRequest = 30 // long enough to still be in flight at the poll
	if err := w.AddService(spec, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(1500*time.Millisecond, 100*time.Millisecond, "a", 4); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := w.Summary()
	if s.RemovalFailures != 4 {
		t.Errorf("removal failures = %d, want 4", s.RemovalFailures)
	}
}

func TestDeployReplicaAndStress(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddService(cpuSpec("a"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.DeployReplica("a", "node-1", resources.Vector{CPU: 2, MemMB: 256}); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Monitor().Replicas("a")); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	if err := w.AddStressContainer("node-1", resources.Vector{CPU: 2, MemMB: 64}, 4, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.AddStressContainer("ghost", resources.Vector{CPU: 1}, 1, 0); err == nil {
		t.Error("unknown node accepted")
	}
	// The stress container exists on the node but is not a service replica.
	n := w.Cluster().Node("node-1")
	if len(n.Containers()) != 2 {
		t.Errorf("node-1 containers = %d, want 2", len(n.Containers()))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, time.Duration) {
		w, err := New(smallConfig(9), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddService(cpuSpec("a"), 0.5, loadgen.Wave{Base: 8, Amplitude: 0.4, Period: 20 * time.Second}); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		s := w.Summary()
		return s.Completed, s.MeanLatency
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Errorf("runs differ: %d/%v vs %d/%v", c1, m1, c2, m2)
	}
}

func TestAutoscalerGrowsReplicasUnderLoad(t *testing.T) {
	cfg := smallConfig(2)
	w, err := New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: 30}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	// 30 rps * 0.11 cpu-s = 3.3 cores demanded; at 50% target K8s needs
	// ~7 replicas of 1 CPU, clamped by max 6.
	if got := len(w.Monitor().Replicas("a")); got < 3 {
		t.Errorf("replicas = %d, want >= 3 under sustained load", got)
	}
	if w.Monitor().Counts().ScaleOuts == 0 {
		t.Error("no scale-outs recorded")
	}
	if w.UtilSeries.Len() == 0 {
		t.Error("UtilSeries not recorded")
	}
	if w.ReplicaSeries["a"].Len() == 0 {
		t.Error("ReplicaSeries not recorded")
	}
}

func TestBaseLatencyCharged(t *testing.T) {
	cfg := smallConfig(1)
	cfg.BaseLatency = 100 * time.Millisecond
	w, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := cpuSpec("a")
	spec.CPUPerRequest = 0.001
	if err := w.AddService(spec, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.InjectRequests(time.Second, time.Second, "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntilDrained(3*time.Second, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := w.Summary().MeanLatency; got < 100*time.Millisecond {
		t.Errorf("mean = %v, want >= the 100ms base latency", got)
	}
}

// routeWorld registers services a, b and c and returns the world with a
// request for b that route can be called with repeatedly: each call routes
// it and takes it back off the replica that received it.
func routeWorld(t *testing.T) (w *World, route func()) {
	t.Helper()
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := w.AddService(cpuSpec(name), 0.5, nil); err != nil {
			t.Fatal(err)
		}
	}
	b := cpuSpec("b")
	req := w.ids.NewRequest(&b, 0)
	req.ServiceID = 1
	var replicas []*container.Container
	return w, func() {
		w.route(req)
		replicas = w.Control().AppendReplicas(replicas[:0], "b")
		for _, c := range replicas {
			if c.Release(req, false) {
				return
			}
		}
		t.Fatal("request for service b was not routed to a replica of b")
	}
}

// TestRouteByServiceID checks that services are numbered in registration
// order and that a request is routed by the ID it carries.
func TestRouteByServiceID(t *testing.T) {
	w, route := routeWorld(t)
	for i, name := range []string{"a", "b", "c"} {
		if id, ok := w.Control().ServiceID(name); !ok || id != workload.ServiceID(i) {
			t.Errorf("ServiceID(%s) = %d, %v; want %d", name, id, ok, i)
		}
	}
	route()
	if s := w.Summary(); s.Requests != 0 {
		t.Errorf("routing recorded %d outcomes, want 0", s.Requests)
	}
}

// TestRouteAllocFree pins World.route of an already-created request to zero
// allocations.
func TestRouteAllocFree(t *testing.T) {
	_, route := routeWorld(t)
	route() // size the replica buffer
	if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
		t.Errorf("World.route allocates %.1f objects/request, want 0", allocs)
	}
}

// TestTickAllocFree pins one World.Run tick of a warm plain world to zero
// allocations: arrivals reuse the requests earlier ticks released, routing
// and physics append into storage that earlier ticks sized, and completion
// recording counts into latency values the warm-up already saw — with no
// pre-sizing.
func TestTickAllocFree(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		spec := cpuSpec(name)
		spec.CPUPerRequest = 0.0005
		if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: 2000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	tick := func() {
		if err := w.Run(w.engine.Now() + w.cfg.Tick); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("World.Run allocates %.1f objects/tick, want 0", allocs)
	}
}

// TestAddServiceRejectsMisalignedRecorder checks that a recorder which
// interned a name before registration is reported instead of silently
// recording under the wrong service.
func TestAddServiceRejectsMisalignedRecorder(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Recorder().RecordFailure("stray", workload.FailureConnection)
	if err := w.AddService(cpuSpec("a"), 0.5, nil); err == nil {
		t.Error("AddService accepted a recorder whose IDs disagree with the control plane")
	}
}

// TestLongHorizonHeapFlat checks that a plain world's live heap stops
// growing with the horizon: after a warm-up, running on from 15 min to 2 h
// (about 3.8M more completions) must move the live heap by under 2 MB. A
// store that kept every completion's latency would grow by tens of MB.
func TestLongHorizonHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulated hours")
	}
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		spec := cpuSpec(name)
		spec.CPUPerRequest = 0.0005
		if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: 200}); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func(at time.Duration) uint64 {
		t.Helper()
		if err := w.Run(at); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	early := liveHeap(15 * time.Minute)
	late := liveHeap(2 * time.Hour)
	if completed := w.Summary().Completed; completed < 4_000_000 {
		t.Fatalf("completed %d requests, want the full 2 h load", completed)
	}
	if growth := int64(late) - int64(early); max(growth, -growth) >= 2<<20 {
		t.Errorf("live heap moved %.1f MB from 15 min to 2 h (%d → %d bytes), want < 2 MB",
			float64(growth)/(1<<20), early, late)
	}
}
