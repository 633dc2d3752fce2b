package nodemanager

import (
	"math"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

func spec() workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: "svc", Kind: workload.KindCPUBound,
		CPUPerRequest: 1.0, MemPerRequest: 10, BaselineMemMB: 50,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 256,
		MinReplicas: 1, MaxReplicas: 4, Timeout: 30 * time.Second,
	}
}

func setup(t *testing.T) (*cluster.Node, *Manager, *container.Container) {
	t.Helper()
	n, err := cluster.NewNode(cluster.DefaultNodeConfig("node-0"))
	if err != nil {
		t.Fatal(err)
	}
	c := container.New("c-0", spec(), "node-0", resources.Vector{CPU: 2, MemMB: 512}, 0)
	c.MaybeStart(0)
	if err := n.AddContainer(c); err != nil {
		t.Fatal(err)
	}
	return n, New(n), c
}

func TestReportAveragesSamples(t *testing.T) {
	_, nm, c := setup(t)

	c.SetLastUsage(container.Usage{CPU: 1.0, MemMB: 100, NetMbps: 10})
	nm.Sample()
	c.SetLastUsage(container.Usage{CPU: 2.0, MemMB: 200, NetMbps: 30})
	nm.Sample()

	rep := nm.Report()
	if rep.NodeID != "node-0" {
		t.Errorf("NodeID = %q", rep.NodeID)
	}
	if len(rep.Containers) != 1 {
		t.Fatalf("containers = %d, want 1", len(rep.Containers))
	}
	cs := rep.Containers[0]
	if math.Abs(cs.Usage.CPU-1.5) > 1e-9 || math.Abs(cs.Usage.MemMB-150) > 1e-9 || math.Abs(cs.Usage.NetMbps-20) > 1e-9 {
		t.Errorf("averaged usage = %v", cs.Usage)
	}
	if cs.Requested.CPU != 2 {
		t.Errorf("requested = %v", cs.Requested)
	}
	if !cs.Routable {
		t.Error("running container reported unroutable")
	}
}

func TestReportResetsWindow(t *testing.T) {
	_, nm, c := setup(t)
	c.SetLastUsage(container.Usage{CPU: 4})
	nm.Sample()
	_ = nm.Report()

	// New window: no samples -> zero usage.
	rep := nm.Report()
	if rep.Containers[0].Usage.CPU != 0 {
		t.Errorf("window not reset: %v", rep.Containers[0].Usage)
	}
}

func TestReportIncludesCapacityAndAvailability(t *testing.T) {
	_, nm, _ := setup(t)
	rep := nm.Report()
	if rep.Capacity.CPU != 4 {
		t.Errorf("capacity = %v", rep.Capacity)
	}
	if rep.Available.CPU != 2 { // 4 - 2 allocated
		t.Errorf("available = %v", rep.Available)
	}
}

func TestStartingContainersNotSampled(t *testing.T) {
	n, _, _ := setup(t)
	nm := New(n)
	starting := container.New("c-1", spec(), "node-0", resources.Vector{CPU: 1, MemMB: 256}, time.Hour)
	_ = n.AddContainer(starting)
	nm.Sample()
	rep := nm.Report()
	for _, cs := range rep.Containers {
		if cs.ID == "c-1" {
			if cs.Routable {
				t.Error("starting container reported routable")
			}
			if cs.Usage.CPU != 0 {
				t.Error("starting container has usage")
			}
		}
	}
}

func TestApplyVertical(t *testing.T) {
	_, nm, c := setup(t)
	if err := nm.ApplyVertical("c-0", resources.Vector{CPU: 3, MemMB: 1024}); err != nil {
		t.Fatal(err)
	}
	if c.Alloc.CPU != 3 || c.Alloc.MemMB != 1024 {
		t.Errorf("alloc = %v after update", c.Alloc)
	}
	if err := nm.ApplyVertical("nope", resources.Vector{CPU: 1}); err == nil {
		t.Error("unknown container accepted")
	}
	if err := nm.ApplyVertical("c-0", resources.Vector{CPU: -1}); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestLiveness(t *testing.T) {
	n, nm, _ := setup(t)
	if nm.Liveness() != 1 {
		t.Errorf("liveness = %d, want 1", nm.Liveness())
	}
	n.RemoveContainer("c-0")
	if nm.Liveness() != 0 {
		t.Errorf("liveness = %d, want 0", nm.Liveness())
	}
}

// TestStatsWindowSemantics pins the sampling-window contract the Monitor
// relies on: a report averages the samples since the previous report, a
// fresh Manager on an already-sampled node starts with an empty window, a
// missed query carries the window over to the next report, and a Starting
// container reports zero usage.
func TestStatsWindowSemantics(t *testing.T) {
	n, nm, c := setup(t)
	starting := container.New("c-1", spec(), "node-0", resources.Vector{CPU: 1, MemMB: 256}, time.Hour)
	if err := n.AddContainer(starting); err != nil {
		t.Fatal(err)
	}
	usage := func(rep Report, id string) resources.Vector {
		t.Helper()
		for _, cs := range rep.Containers {
			if cs.ID == id {
				return cs.Usage
			}
		}
		t.Fatalf("container %s missing from report", id)
		return resources.Vector{}
	}

	for _, cpu := range []float64{1, 2, 3} {
		c.SetLastUsage(container.Usage{CPU: cpu, MemMB: 10 * cpu})
		starting.SetLastUsage(container.Usage{CPU: 9})
		nm.Sample()
	}
	// A second manager attached to the same node (a re-attach or a lease)
	// has sampled nothing yet.
	fresh := New(n)
	if u := usage(fresh.Report(), "c-0"); u != (resources.Vector{}) {
		t.Errorf("fresh manager reports %v, want zero", u)
	}
	rep := nm.Report()
	if u := usage(rep, "c-0"); math.Abs(u.CPU-2) > 1e-9 || math.Abs(u.MemMB-20) > 1e-9 {
		t.Errorf("window average = %v, want CPU 2 MemMB 20", u)
	}
	if u := usage(rep, "c-1"); u != (resources.Vector{}) {
		t.Errorf("starting container reports %v, want zero", u)
	}

	// Samples before and after a missed query land in one report.
	c.SetLastUsage(container.Usage{CPU: 4})
	nm.Sample()
	nm.NoteMissedQuery()
	c.SetLastUsage(container.Usage{CPU: 2})
	nm.Sample()
	if u := usage(nm.Report(), "c-0"); math.Abs(u.CPU-3) > 1e-9 {
		t.Errorf("window across a missed query = %v, want CPU 3", u)
	}
	if nm.MissedQueries() != 1 {
		t.Errorf("missed queries = %d, want 1", nm.MissedQueries())
	}
	if u := usage(nm.Report(), "c-0"); u != (resources.Vector{}) {
		t.Errorf("window after report = %v, want zero", u)
	}

	// The fresh manager's own window is independent of the first one's.
	c.SetLastUsage(container.Usage{CPU: 1})
	fresh.Sample()
	nm.Sample()
	c.SetLastUsage(container.Usage{CPU: 3})
	nm.Sample()
	if u := usage(fresh.Report(), "c-0"); math.Abs(u.CPU-1) > 1e-9 {
		t.Errorf("fresh manager window = %v, want CPU 1", u)
	}
	if u := usage(nm.Report(), "c-0"); math.Abs(u.CPU-2) > 1e-9 {
		t.Errorf("original manager window = %v, want CPU 2", u)
	}
}

// TestSampleAllocFree pins the per-tick sampling path to zero allocations
// once the windows are sized.
func TestSampleAllocFree(t *testing.T) {
	n, nm, c := setup(t)
	for i := 1; i < 4; i++ {
		extra := container.New("c-"+string(rune('0'+i)), spec(), "node-0", resources.Vector{CPU: 0.5, MemMB: 256}, 0)
		extra.MaybeStart(0)
		if err := n.AddContainer(extra); err != nil {
			t.Fatal(err)
		}
	}
	c.SetLastUsage(container.Usage{CPU: 1, MemMB: 100})
	nm.Sample() // size the windows
	if allocs := testing.AllocsPerRun(100, nm.Sample); allocs != 0 {
		t.Errorf("Sample allocates %.1f objects/call, want 0", allocs)
	}
}

// TestStatsWindowSurvivesPlacement checks that placing or removing other
// containers mid-window keeps the samples a surviving container has already
// accumulated.
func TestStatsWindowSurvivesPlacement(t *testing.T) {
	n, nm, c := setup(t)
	other := container.New("c-1", spec(), "node-0", resources.Vector{CPU: 0.5, MemMB: 256}, 0)
	other.MaybeStart(0)
	if err := n.AddContainer(other); err != nil {
		t.Fatal(err)
	}
	c.SetLastUsage(container.Usage{CPU: 1})
	other.SetLastUsage(container.Usage{CPU: 3})
	nm.Sample()
	late := container.New("c-2", spec(), "node-0", resources.Vector{CPU: 0.5, MemMB: 256}, 0)
	late.MaybeStart(0)
	if err := n.AddContainer(late); err != nil {
		t.Fatal(err)
	}
	n.RemoveContainer("c-0")
	late.SetLastUsage(container.Usage{CPU: 2})
	other.SetLastUsage(container.Usage{CPU: 1})
	nm.Sample()
	want := map[string]float64{"c-1": 2, "c-2": 2}
	rep := nm.Report()
	if len(rep.Containers) != len(want) {
		t.Fatalf("report has %d containers, want %d", len(rep.Containers), len(want))
	}
	for _, cs := range rep.Containers {
		if math.Abs(cs.Usage.CPU-want[cs.ID]) > 1e-9 {
			t.Errorf("%s window average CPU = %v, want %v", cs.ID, cs.Usage.CPU, want[cs.ID])
		}
	}
}
