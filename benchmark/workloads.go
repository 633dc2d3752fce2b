package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// The benchmark hands the simulator nothing but scenario JSON documents, so
// these types restate the scenario schema as plain data rather than importing
// the scenario package's Go types: a refactor of those types that keeps the
// JSON schema compiling identically needs no benchmark edit.

type scenarioDoc struct {
	Seed        int64        `json:"seed"`
	Nodes       int          `json:"nodes"`
	Algorithm   string       `json:"algorithm"`
	Duration    string       `json:"duration"`
	Zones       *zonesDecl   `json:"zones,omitempty"`
	Services    []serviceDoc `json:"services"`
	Failures    []failureDoc `json:"failures,omitempty"`
	SelfHealing *healDecl    `json:"selfHealing,omitempty"`
}

type zonesDecl struct {
	Count int `json:"count"`
}

type healDecl struct {
	Enabled    bool `json:"enabled"`
	Checkpoint bool `json:"checkpoint,omitempty"`
}

type failureDoc struct {
	Node string `json:"node"`
	At   string `json:"at"`
}

type serviceDoc struct {
	Name           string  `json:"name"`
	Kind           string  `json:"kind"`
	CPUPerRequest  float64 `json:"cpuPerRequest,omitempty"`
	MemPerRequest  float64 `json:"memPerRequest,omitempty"`
	NetPerRequest  float64 `json:"netPerRequest,omitempty"`
	BaselineMemMB  float64 `json:"baselineMemMB,omitempty"`
	BackgroundCPU  float64 `json:"backgroundCPU,omitempty"`
	InitialCPU     float64 `json:"initialCPU,omitempty"`
	InitialMemMB   float64 `json:"initialMemMB,omitempty"`
	InitialNetMbps float64 `json:"initialNetMbps,omitempty"`
	MinReplicas    int     `json:"minReplicas,omitempty"`
	MaxReplicas    int     `json:"maxReplicas,omitempty"`
	Timeout        string  `json:"timeout,omitempty"`
	TargetUtil     float64 `json:"targetUtil,omitempty"`
	Load           loadDoc `json:"load"`
}

type loadDoc struct {
	Type      string  `json:"type"`
	Base      float64 `json:"base"`
	Peak      float64 `json:"peak,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	Period    string  `json:"period,omitempty"`
	BurstLen  string  `json:"burstLen,omitempty"`
	Phase     string  `json:"phase,omitempty"`
}

// docSet is one benchmark workload: the scenario documents one closed-loop
// iteration simulates back to back.
type docSet struct {
	Name string
	Docs [][]byte
}

// generators maps each workload name to the function that builds its
// documents from a seed. Why each one exists is in README.md.
var generators = map[string]func(seed int64) ([]scenarioDoc, error){
	"paper-fig7": paperFig7,
	"dc-1k":      dc1k,
	"dc-5k-16z":  dc5k16z,
	"churn-600n": churn600n,
}

// workloadNames returns the workload names in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(generators))
	for n := range generators {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// generate builds a workload's JSON documents. The same seed always yields
// byte-identical documents.
func generate(name string, seed int64) (docSet, error) {
	gen, ok := generators[name]
	if !ok {
		return docSet{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	docs, err := gen(seed)
	if err != nil {
		return docSet{}, err
	}
	w := docSet{Name: name}
	for _, d := range docs {
		b, err := json.MarshalIndent(d, "", " ")
		if err != nil {
			return docSet{}, fmt.Errorf("%s: encode scenario: %w", name, err)
		}
		w.Docs = append(w.Docs, b)
	}
	return w, nil
}

// round4 keeps the documents readable; the value the simulator sees is the
// rounded one, so rounding costs no determinism.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func dur(d time.Duration) string { return d.String() }

// strata returns n values spread over [lo, hi): one draw from jitter inside
// each of n equal strata, handed out in the order order shuffles them into.
// Every seed gets the same spread of values, so the load a workload offers
// barely moves from seed to seed while every document still changes with it.
func strata(jitter, order *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(i)+jitter.Float64())/float64(n)
	}
	order.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// paperFig7 is §VI's Figure 7 testbed: 19 workers and 15 mixed CPU+memory
// services with per-service parameters in the ranges the experiments
// package's makeServices draws from, run under low- and high-burst load by
// kubernetes, hybrid and hybridmem for one simulated hour each.
func paperFig7(seed int64) ([]scenarioDoc, error) {
	const n = 15
	// With 15 services the pairing of parameters to load phases decides
	// which bursts overlap, which moved the simulated p99 by a fifth from
	// seed to seed; the pairing is therefore fixed and the seed moves each
	// value within its stratum.
	rng, order := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(15))
	cpus, mems, rpss := strata(rng, order, n, 0.10, 0.20), strata(rng, order, n, 80, 120), strata(rng, order, n, 8, 12)
	var docs []scenarioDoc
	for _, shape := range []string{"low-burst", "high-burst"} {
		for _, algo := range []string{"kubernetes", "hybrid", "hybridmem"} {
			d := scenarioDoc{Seed: seed, Nodes: 19, Algorithm: algo, Duration: dur(time.Hour)}
			for i := 0; i < n; i++ {
				s := serviceDoc{
					Name: fmt.Sprintf("mixed-%02d", i), Kind: "mixed",
					CPUPerRequest: round4(cpus[i]), MemPerRequest: round4(mems[i]),
					BaselineMemMB: 300, BackgroundCPU: 0.035,
					InitialCPU: 1, InitialMemMB: 640,
					MinReplicas: 1, MaxReplicas: 10, Timeout: dur(30 * time.Second),
					TargetUtil: 0.5,
				}
				rps := round4(rpss[i])
				if shape == "high-burst" {
					s.Load = loadDoc{Type: "burst", Base: round4(rps * 0.8), Peak: round4(rps * 2.4),
						Period: dur(10 * time.Minute), BurstLen: dur(2 * time.Minute),
						Phase: dur(10 * time.Minute * time.Duration(i) / n)}
				} else {
					s.Load = loadDoc{Type: "wave", Base: rps, Amplitude: 0.3,
						Period: dur(8 * time.Minute), Phase: dur(8 * time.Minute * time.Duration(i) / n)}
				}
				d.Services = append(d.Services, s)
			}
			docs = append(docs, d)
		}
	}
	return docs, nil
}

// datacenter is the scale-sweep shape: n CPU-bound services on
// phase-staggered waves with a bounded replica ceiling, in the ranges the
// experiments package's scaleServices draws from.
func datacenter(seed int64, nodes, services, zones int, horizon time.Duration) []scenarioDoc {
	rng := rand.New(rand.NewSource(seed))
	d := scenarioDoc{Seed: seed, Nodes: nodes, Algorithm: "hybridmem", Duration: dur(horizon)}
	if zones > 1 {
		d.Zones = &zonesDecl{Count: zones}
	}
	const period = 4 * time.Minute
	cpus, rpss := strata(rng, rng, services, 0.05, 0.10), strata(rng, rng, services, 8, 16)
	for i := 0; i < services; i++ {
		cpu, rps := cpus[i], rpss[i]
		d.Services = append(d.Services, serviceDoc{
			Name: fmt.Sprintf("svc-%04d", i), Kind: "cpu",
			CPUPerRequest: round4(cpu), MemPerRequest: 2,
			BaselineMemMB: 200, BackgroundCPU: 0.02,
			InitialCPU: 1, InitialMemMB: 512,
			MinReplicas: 1, MaxReplicas: 4, Timeout: dur(30 * time.Second),
			TargetUtil: 0.5,
			Load: loadDoc{Type: "wave", Base: round4(rps), Amplitude: 0.3,
				Period: dur(period), Phase: dur(period * time.Duration(i) / time.Duration(services))},
		})
	}
	return []scenarioDoc{d}
}

// dc1k is ROADMAP item 2's 1,000-node / 500-service point under the single
// central monitor.
func dc1k(seed int64) ([]scenarioDoc, error) {
	return datacenter(seed, 1000, 500, 1, 5*time.Minute), nil
}

// dc5k16z is the 5,000-node / 2,000-service grid on the 16-zone plane and
// the sharded event heap.
func dc5k16z(seed int64) ([]scenarioDoc, error) {
	return datacenter(seed, 5000, 2000, 16, 2*time.Minute), nil
}

// churn600n keeps the control plane busy: 300 cpu/mem/net services idle at
// about half a request per second and burst briefly to 8–10 rps, so the
// cost-optimal manager scales every service out and back in every few
// minutes, while three node failures exercise the failure detector and
// reconciler.
func churn600n(seed int64) ([]scenarioDoc, error) {
	const (
		nodes    = 600
		services = 300
		horizon  = 30 * time.Minute
	)
	rng := rand.New(rand.NewSource(seed))
	d := scenarioDoc{
		Seed: seed, Nodes: nodes, Algorithm: "manager-cost", Duration: dur(horizon),
		SelfHealing: &healDecl{Enabled: true, Checkpoint: true},
	}
	kinds := []string{"cpu", "mem", "net"}
	periods, bursts := strata(rng, rng, services, 120, 240), strata(rng, rng, services, 15, 40)
	phases := strata(rng, rng, services, 0, 1)
	bases, peaks := strata(rng, rng, services, 0.3, 0.7), strata(rng, rng, services, 8, 10)
	for i := 0; i < services; i++ {
		period := time.Duration(periods[i]) * time.Second
		s := serviceDoc{
			Name: fmt.Sprintf("churn-%03d", i), Kind: kinds[i%len(kinds)],
			MinReplicas: 1, MaxReplicas: 6, TargetUtil: 0.5,
			Load: loadDoc{Type: "burst", Base: round4(bases[i]), Peak: round4(peaks[i]),
				Period: dur(period), BurstLen: dur(time.Duration(bursts[i]) * time.Second),
				Phase: dur(time.Duration(phases[i]*float64(period/time.Second)) * time.Second)},
		}
		if s.Kind == "net" {
			s.InitialNetMbps = 50
		}
		d.Services = append(d.Services, s)
	}
	// Initial placement fills the low-numbered nodes first, so failures drawn
	// from them always hit machines that host replicas.
	failed := map[int]bool{}
	for k := 0; k < 3; k++ {
		node := rng.Intn(60)
		for failed[node] {
			node = rng.Intn(60)
		}
		failed[node] = true
		at := time.Duration(k+1)*horizon/4 + time.Duration(rng.Intn(60))*time.Second
		d.Failures = append(d.Failures, failureDoc{Node: fmt.Sprintf("node-%d", node), At: dur(at)})
	}
	return []scenarioDoc{d}, nil
}
