package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, time.Second, 1.1); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := NewHistogram(time.Second, time.Second, 1.1); err == nil {
		t.Error("max == min accepted")
	}
	if _, err := NewHistogram(time.Millisecond, time.Second, 1.0); err == nil {
		t.Error("growth 1.0 accepted")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := DefaultLatencyHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zero")
	}
	h.Observe(100 * time.Millisecond)
	h.Observe(200 * time.Millisecond)
	h.Observe(300 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 200*time.Millisecond {
		t.Errorf("Mean = %v, want exactly 200ms", h.Mean())
	}
	if h.Max() != 300*time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
	if s := h.String(); !strings.Contains(s, "n=3") {
		t.Errorf("String = %q", s)
	}
}

// TestQuantileAccuracy checks the bounded-relative-error guarantee against
// exact percentiles on random data.
func TestQuantileAccuracy(t *testing.T) {
	h := DefaultLatencyHistogram()
	rng := rand.New(rand.NewSource(1))
	var samples []time.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform between 2ms and 30s.
		d := time.Duration(float64(2*time.Millisecond) * math.Exp(rng.Float64()*math.Log(15000)))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		est := h.Quantile(q)
		relErr := math.Abs(float64(est)-float64(exact)) / float64(exact)
		if relErr > 0.12 { // growth 1.1 plus rank rounding
			t.Errorf("q=%.2f: est %v vs exact %v (rel err %.3f)", q, est, exact, relErr)
		}
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h, err := NewHistogram(10*time.Millisecond, time.Second, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(time.Millisecond) // under
	h.Observe(time.Minute)      // over
	h.Observe(100 * time.Millisecond)

	if got := h.Quantile(0.01); got != 10*time.Millisecond {
		t.Errorf("under-range quantile = %v, want min", got)
	}
	if got := h.Quantile(1.0); got != time.Minute {
		t.Errorf("over-range quantile = %v, want observed max", got)
	}
	buckets := h.Buckets()
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3 (under + one cell + over)", len(buckets))
	}
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total != h.Count() {
		t.Errorf("bucket counts sum to %d, want %d", total, h.Count())
	}
}

func TestQuantileClamps(t *testing.T) {
	h := DefaultLatencyHistogram()
	h.Observe(50 * time.Millisecond)
	if h.Quantile(-1) == 0 || h.Quantile(2) == 0 {
		t.Error("out-of-range q mishandled")
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		h := DefaultLatencyHistogram()
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(20 * time.Second))))
		}
		prev := time.Duration(0)
		for q := 0.05; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty Welford not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7)
	}
}

// Property: Welford matches the two-pass computation.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		var w Welford
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			w.Observe(xs[i])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEWMA(t *testing.T) {
	if _, err := NewEWMA(0); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewEWMA(1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Value() != 0 {
		t.Error("unseeded EWMA not zero")
	}
	e.Observe(10) // seeds
	if e.Value() != 10 {
		t.Errorf("seed = %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Errorf("after 20 = %v, want 15", e.Value())
	}
	e.Observe(15)
	if e.Value() != 15 {
		t.Errorf("after 15 = %v, want 15", e.Value())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e, _ := NewEWMA(0.2)
	e.Observe(0)
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Value()-42) > 1e-6 {
		t.Errorf("EWMA did not converge: %v", e.Value())
	}
}

// TestObserveNMatchesRepeatedObserve checks that ObserveN(d, n) leaves a
// histogram exactly as n calls to Observe(d) would — count, sum, max, the
// under and over cells and every bucket — for values below, inside and
// beyond the bucketed range, and that n = 0 changes nothing.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	values := []time.Duration{
		0, 500 * time.Microsecond, // below the range
		time.Millisecond, 37 * time.Millisecond, 2 * time.Second, // inside it
		10 * time.Minute, 3 * time.Hour, // beyond it
	}
	batched, repeated := DefaultLatencyHistogram(), DefaultLatencyHistogram()
	for i, d := range values {
		n := uint64(1 + 3*i)
		batched.ObserveN(d, n)
		for range n {
			repeated.Observe(d)
		}
		batched.ObserveN(24*time.Hour, 0)
		if !sameHistogram(batched, repeated) {
			t.Fatalf("after %v×%d: ObserveN histogram %+v, want %+v", d, n, batched, repeated)
		}
	}
}

func sameHistogram(a, b *Histogram) bool {
	if a.total != b.total || a.sum != b.sum || a.max != b.max || a.under != b.under || a.over != b.over {
		return false
	}
	return slices.Equal(a.counts, b.counts)
}
