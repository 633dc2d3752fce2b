package loadgen

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hyscale/internal/workload"
)

func spec() workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: "svc", Kind: workload.KindCPUBound,
		CPUPerRequest: 0.1, InitialReplicaCPU: 1, InitialReplicaMemMB: 256,
		MinReplicas: 1, MaxReplicas: 4, Timeout: 30 * time.Second,
	}
}

func TestConstantRate(t *testing.T) {
	p := Constant{RPS: 7}
	if p.Rate(0) != 7 || p.Rate(time.Hour) != 7 {
		t.Error("constant rate not constant")
	}
}

func TestWaveRate(t *testing.T) {
	w := Wave{Base: 10, Amplitude: 0.5, Period: time.Minute}
	if got := w.Rate(0); math.Abs(got-10) > 1e-9 {
		t.Errorf("Rate(0) = %v, want 10 (sin 0)", got)
	}
	if got := w.Rate(15 * time.Second); math.Abs(got-15) > 1e-9 {
		t.Errorf("Rate(quarter) = %v, want 15 (peak)", got)
	}
	if got := w.Rate(45 * time.Second); math.Abs(got-5) > 1e-9 {
		t.Errorf("Rate(3/4) = %v, want 5 (trough)", got)
	}
}

func TestWaveNeverNegative(t *testing.T) {
	w := Wave{Base: 10, Amplitude: 2, Period: time.Minute} // swing exceeds base
	for i := 0; i < 60; i++ {
		if w.Rate(time.Duration(i)*time.Second) < 0 {
			t.Fatal("negative rate")
		}
	}
}

func TestWaveZeroPeriod(t *testing.T) {
	w := Wave{Base: 4}
	if w.Rate(time.Hour) != 4 {
		t.Error("zero-period wave should be flat")
	}
}

func TestWavePhaseShift(t *testing.T) {
	a := Wave{Base: 10, Amplitude: 0.5, Period: time.Minute}
	b := Wave{Base: 10, Amplitude: 0.5, Period: time.Minute, PhaseShift: 15 * time.Second}
	if math.Abs(b.Rate(0)-a.Rate(15*time.Second)) > 1e-9 {
		t.Error("phase shift not applied")
	}
}

func TestBurstRate(t *testing.T) {
	b := Burst{Base: 2, Peak: 20, Period: 10 * time.Minute, BurstLen: 2 * time.Minute}
	if got := b.Rate(time.Minute); got != 20 {
		t.Errorf("in-burst rate = %v, want 20", got)
	}
	if got := b.Rate(5 * time.Minute); got != 2 {
		t.Errorf("off-burst rate = %v, want 2", got)
	}
	// Next period bursts again.
	if got := b.Rate(10*time.Minute + time.Second); got != 20 {
		t.Errorf("second-period burst = %v, want 20", got)
	}
}

func TestFuncPattern(t *testing.T) {
	p := Func(func(at time.Duration) float64 { return at.Seconds() })
	if p.Rate(5*time.Second) != 5 {
		t.Error("Func pattern not forwarded")
	}
}

func TestIDAllocator(t *testing.T) {
	var a IDAllocator
	if a.Next() != 1 || a.Next() != 2 {
		t.Error("IDs not sequential")
	}
}

func TestDeterministicArrivalsMatchRate(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 10}, &ids)
	total := 0
	tick := 100 * time.Millisecond
	for i := 0; i < 100; i++ { // ten seconds
		total += len(g.Arrivals(time.Duration(i)*tick, tick, nil))
	}
	if total != 100 {
		t.Errorf("arrivals = %d, want 100 (10 rps x 10 s)", total)
	}
}

func TestFractionalRatesAccumulate(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 0.5}, &ids)
	total := 0
	for i := 0; i < 100; i++ { // ten seconds at 0.5 rps
		total += len(g.Arrivals(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, nil))
	}
	if total != 5 {
		t.Errorf("arrivals = %d, want 5", total)
	}
}

func TestArrivalsSpreadWithinWindow(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 40}, &ids)
	reqs := g.Arrivals(time.Second, time.Second, nil)
	if len(reqs) != 40 {
		t.Fatalf("arrivals = %d, want 40", len(reqs))
	}
	prev := time.Duration(0)
	for _, r := range reqs {
		if r.Arrival < time.Second || r.Arrival >= 2*time.Second {
			t.Fatalf("arrival %v outside window", r.Arrival)
		}
		if r.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = r.Arrival
	}
}

func TestArrivalIDsUnique(t *testing.T) {
	var ids IDAllocator
	g1 := NewGenerator(spec(), Constant{RPS: 10}, &ids)
	g2 := NewGenerator(spec(), Constant{RPS: 10}, &ids)
	seen := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		for _, g := range []*Generator{g1, g2} {
			for _, r := range g.Arrivals(time.Duration(i)*time.Second, time.Second, nil) {
				if seen[r.ID] {
					t.Fatalf("duplicate ID %d", r.ID)
				}
				seen[r.ID] = true
			}
		}
	}
}

func TestPoissonReproducible(t *testing.T) {
	run := func() []int {
		var ids IDAllocator
		g := NewGenerator(spec(), Constant{RPS: 20}, &ids)
		g.Poisson = true
		rng := rand.New(rand.NewSource(5))
		var counts []int
		for i := 0; i < 50; i++ {
			counts = append(counts, len(g.Arrivals(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, rng)))
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different Poisson arrivals")
		}
	}
}

func TestPoissonMeanRoughlyMatches(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 50}, &ids)
	g.Poisson = true
	rng := rand.New(rand.NewSource(1))
	total := 0
	const secs = 200
	for i := 0; i < secs*10; i++ {
		total += len(g.Arrivals(time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, rng))
	}
	mean := float64(total) / secs
	if mean < 45 || mean > 55 {
		t.Errorf("Poisson mean rate = %v, want ~50", mean)
	}
}

func TestPoissonLargeLambdaNormalApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	total := 0
	const n = 2000
	for i := 0; i < n; i++ {
		total += poisson(rng, 100) // exercises the normal-approximation path
	}
	mean := float64(total) / n
	if mean < 95 || mean > 105 {
		t.Errorf("poisson(100) mean = %v, want ~100", mean)
	}
}

func TestZeroAndNegativeWindows(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 100}, &ids)
	if got := g.Arrivals(0, 0, nil); got != nil {
		t.Error("zero window produced arrivals")
	}
	if got := g.Arrivals(0, -time.Second, nil); got != nil {
		t.Error("negative window produced arrivals")
	}
}

// TestSlabRequests checks that slab-carved requests are initialised like
// workload.NewRequest builds them, numbered in order, and distinct across a
// chunk boundary.
func TestSlabRequests(t *testing.T) {
	var ids IDAllocator
	sp := spec()
	seen := make(map[*workload.Request]bool)
	for i := 1; i <= 2*requestChunk+1; i++ {
		r := ids.NewRequest(&sp, time.Duration(i))
		want := workload.NewRequest(uint64(i), spec(), time.Duration(i))
		if *r != *want {
			t.Fatalf("request %d = %+v, want %+v", i, *r, *want)
		}
		if seen[r] {
			t.Fatalf("request %d reuses storage", i)
		}
		seen[r] = true
	}
}

// TestArrivalsClearConsumedBuffer checks that a smaller tick does not leave
// the previous tick's requests reachable past the end of the reused buffer.
func TestArrivalsClearConsumedBuffer(t *testing.T) {
	var ids IDAllocator
	g := NewGenerator(spec(), Constant{RPS: 50}, &ids)
	g.ServiceID = 7
	first := g.Arrivals(0, time.Second, nil)
	if len(first) != 50 || first[0].ServiceID != 7 {
		t.Fatalf("first tick: %d arrivals, ServiceID %d; want 50 and 7", len(first), first[0].ServiceID)
	}
	g.Pattern = Constant{RPS: 5}
	if got := len(g.Arrivals(time.Second, time.Second, nil)); got != 5 {
		t.Fatalf("second tick: %d arrivals, want 5", got)
	}
	for i, r := range g.buf[5:cap(g.buf)] {
		if r != nil {
			t.Fatalf("buffer slot %d still holds request %d", 5+i, r.ID)
		}
	}
}
