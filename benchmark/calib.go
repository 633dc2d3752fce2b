package main

import (
	"sort"
	"strconv"
	"time"
)

// The benchmark reports host time in reference-host units. On the shared
// machine it was tuned on, a neighbour's load slows every instruction alike
// by up to a third, in phases of 5 to 30 s: the same pass of the same
// workload ran at 160 or at 250 sim-s/wall-s depending on when it ran. So
// the stepping loop also runs a fixed calibration kernel every
// calibrationEvery, and each interval of host time is scaled by
// calibrationRef over the kernel's time around it. A change to the
// simulator cannot move the kernel: it lives here and touches no simulator
// code.

const (
	// calibrationRef is the kernel's median time on the reference host, a
	// 2-vCPU Xeon guest at 2.1 GHz when no neighbour was busy.
	calibrationRef = 2500 * time.Microsecond
	// calibrationEvery spaces the kernel runs inside a simulation.
	calibrationEvery = 200 * time.Millisecond
)

type calibItem struct {
	next  *calibItem
	key   string
	value float64
}

// calibrator holds the kernel's working set, built once so the kernel
// allocates nothing and leaves the garbage collector's pacing alone.
type calibrator struct {
	items   []*calibItem
	byKey   map[string]*calibItem
	samples []float64
	sink    float64
}

const calibItems = 1 << 13

func newCalibrator() *calibrator {
	c := &calibrator{
		items:   make([]*calibItem, calibItems),
		byKey:   make(map[string]*calibItem, calibItems),
		samples: make([]float64, 0, 2*calibItems),
	}
	for i := range c.items {
		it := &calibItem{key: "svc-" + strconv.Itoa(i), value: float64(i%97) * 0.37}
		c.items[i] = it
		c.byKey[it.key] = it
	}
	for i, it := range c.items {
		it.next = c.items[(i*7919+13)%calibItems]
	}
	return c
}

// once runs the kernel one time: string-keyed map lookups, pointer chasing,
// appends and a sort, shaped like the simulator's hot paths.
func (c *calibrator) once() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	c.samples = c.samples[:0]
	for round := 0; round < 2; round++ {
		for i := 0; i < calibItems; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			it := c.byKey[c.items[x%calibItems].key]
			for k := 0; k < 4; k++ {
				it = it.next
			}
			c.samples = append(c.samples, it.value*float64(x%1000))
		}
	}
	sort.Float64s(c.samples)
	c.sink += c.samples[len(c.samples)/2]
	return time.Since(start)
}

// measure returns the median of three kernel runs, so one interruption
// does not skew a calibration point.
func (c *calibrator) measure() time.Duration {
	a, b, d := c.once(), c.once(), c.once()
	return max(min(a, b), min(max(a, b), d))
}

// speed converts a calibration interval's two kernel times into the factor
// that scales its host time to reference-host time.
func speed(k0, k1 time.Duration) float64 {
	return 2 * float64(calibrationRef) / float64(k0+k1)
}
