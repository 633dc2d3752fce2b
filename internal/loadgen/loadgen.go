// Package loadgen emulates the paper's client load: open-loop request
// arrivals following the stable "low-burst" wave, the unstable "high-burst"
// spiking pattern (§VI), fixed-count microbenchmarks (§III), and
// trace-driven demand (the Bitbrains replay of §VI-B).
package loadgen

import (
	"math"
	"math/rand"
	"time"

	"hyscale/internal/workload"
)

// Pattern yields the instantaneous request rate (requests/second) at a
// simulated time.
type Pattern interface {
	Rate(at time.Duration) float64
}

// Constant is a flat arrival rate.
type Constant struct {
	// RPS is the constant rate in requests per second.
	RPS float64
}

// Rate implements Pattern.
func (c Constant) Rate(time.Duration) float64 { return c.RPS }

// Wave is the paper's low-burst stable load: a low-amplitude sinusoid that
// emulates gentle peaks and troughs in client activity.
type Wave struct {
	// Base is the mean rate (requests/second).
	Base float64
	// Amplitude is the relative swing around Base (0.25 means ±25 %).
	Amplitude float64
	// Period is the wavelength of one peak-trough cycle.
	Period time.Duration
	// PhaseShift offsets the wave so services do not all peak together.
	PhaseShift time.Duration
}

// Rate implements Pattern.
func (w Wave) Rate(at time.Duration) float64 {
	if w.Period <= 0 {
		return w.Base
	}
	phase := 2 * math.Pi * float64(at+w.PhaseShift) / float64(w.Period)
	r := w.Base * (1 + w.Amplitude*math.Sin(phase))
	if r < 0 {
		return 0
	}
	return r
}

// Burst is the paper's high-burst unstable load: a spiking square wave that
// jumps from a quiet baseline to a peak for a short window each period.
type Burst struct {
	// Base is the off-peak rate (requests/second).
	Base float64
	// Peak is the in-burst rate (requests/second).
	Peak float64
	// Period is the time between burst starts.
	Period time.Duration
	// BurstLen is how long each burst lasts.
	BurstLen time.Duration
	// PhaseShift offsets the burst schedule.
	PhaseShift time.Duration
}

// Rate implements Pattern.
func (b Burst) Rate(at time.Duration) float64 {
	if b.Period <= 0 {
		return b.Base
	}
	pos := (at + b.PhaseShift) % b.Period
	if pos < b.BurstLen {
		return b.Peak
	}
	return b.Base
}

// Func adapts an arbitrary rate function to the Pattern interface; the
// trace package uses it to drive demand from Bitbrains usage series.
type Func func(at time.Duration) float64

// Rate implements Pattern.
func (f Func) Rate(at time.Duration) float64 { return f(at) }

// IDAllocator hands out process-wide unique request IDs for one experiment,
// and the requests themselves. Requests are carved from fixed-size chunks,
// so a tick's arrivals cost one allocation per requestChunk requests instead
// of one each, and a request handed back with Release is reused before any
// new chunk is carved. Release is the owner's promise that nothing reads the
// request again: a pointer kept past it aliases a later request.
type IDAllocator struct {
	next   uint64
	slab   []workload.Request
	chunks int
	// free holds released requests, zeroed, popped last-in first-out.
	free []*workload.Request
}

// requestChunk is the number of requests allocated together.
const requestChunk = 128

// Next returns a fresh request ID.
func (a *IDAllocator) Next() uint64 {
	a.next++
	return a.next
}

// NewRequest returns a fresh request for spec arriving at the given
// simulated time, with the next ID: a released request if one is waiting,
// else the next slot of the current chunk.
func (a *IDAllocator) NewRequest(spec *workload.ServiceSpec, arrival time.Duration) *workload.Request {
	var r *workload.Request
	if n := len(a.free); n > 0 {
		r = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		if len(a.slab) == 0 {
			a.slab = make([]workload.Request, requestChunk)
			a.chunks++
		}
		r = &a.slab[0]
		a.slab = a.slab[1:]
	}
	r.Init(a.Next(), spec, arrival)
	return r
}

// Release zeroes r and keeps it for the next NewRequest. The caller must own
// r — it came from NewRequest and was not released since — and must not
// touch it afterwards.
func (a *IDAllocator) Release(r *workload.Request) {
	*r = workload.Request{}
	a.free = append(a.free, r)
}

// Ledger reports how many requests have been carved from chunks, and the
// released ones awaiting reuse. The slice is the free list itself, valid
// until the next NewRequest or Release; ownership checks read it.
func (a *IDAllocator) Ledger() (carved int, free []*workload.Request) {
	return a.chunks*requestChunk - len(a.slab), a.free
}

// Generator produces request arrivals for one microservice.
type Generator struct {
	// Spec is the target service.
	Spec workload.ServiceSpec
	// Pattern drives the arrival rate over time.
	Pattern Pattern
	// Poisson, when true, draws each tick's arrival count from a Poisson
	// distribution with the expected mean instead of a deterministic
	// accumulator. Deterministic mode is exactly reproducible and is the
	// default for benchmarks.
	Poisson bool
	// ServiceID is stamped on every generated request; the world that owns
	// the generator sets it to the service's interned ID.
	ServiceID workload.ServiceID

	ids *IDAllocator
	acc float64
	// buf is Arrivals' reusable result buffer; each tick's slice is valid
	// until the next Arrivals call on this generator, which clears it.
	buf []*workload.Request
}

// NewGenerator builds a generator drawing IDs from ids.
func NewGenerator(spec workload.ServiceSpec, p Pattern, ids *IDAllocator) *Generator {
	return &Generator{Spec: spec, Pattern: p, ids: ids}
}

// Arrivals returns the requests arriving in the window [now, now+dt). The
// arrival instants are spread uniformly across the window for latency
// accuracy.
//
// The returned slice is a reused scratch buffer, valid until the next
// Arrivals call on this generator — consume (route) it immediately.
func (g *Generator) Arrivals(now, dt time.Duration, rng *rand.Rand) []*workload.Request {
	if dt <= 0 {
		g.buf = reuse(g.buf, 0)
		return nil
	}
	rate := g.Pattern.Rate(now)
	expected := rate * dt.Seconds()

	var n int
	if g.Poisson && rng != nil {
		n = poisson(rng, expected)
	} else {
		g.acc += expected
		n = int(g.acc)
		g.acc -= float64(n)
	}
	if n <= 0 {
		g.buf = reuse(g.buf, 0)
		return nil
	}
	g.buf = reuse(g.buf, n)
	for i := 0; i < n; i++ {
		at := now + time.Duration(float64(dt)*(float64(i)+0.5)/float64(n))
		r := g.ids.NewRequest(&g.Spec, at)
		r.ServiceID = g.ServiceID
		g.buf = append(g.buf, r)
	}
	return g.buf
}

// reuse empties buf for n new entries. It clears the stale tail that the n
// appends will not overwrite: a stale pointer would keep a finished request,
// and with it the request's whole chunk, reachable.
func reuse(buf []*workload.Request, n int) []*workload.Request {
	if len(buf) > n {
		clear(buf[n:])
	}
	return buf[:0]
}

// poisson draws a Poisson-distributed integer with mean lambda using
// Knuth's method for small lambda and a normal approximation above 30 to
// stay O(1).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
