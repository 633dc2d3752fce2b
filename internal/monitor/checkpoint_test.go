package monitor

// Tests for the in-place checkpoint: CheckpointNow refills one
// monitor-owned buffer instead of allocating a fresh deep copy per poll, so
// it must stay allocation-free when warm, hold exactly the live decision
// state (no keys left over from nodes or services that have gone), and
// restore that state exactly.

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"hyscale/internal/faults"
)

// freshCheckpoint deep-copies m's decision state into newly allocated
// storage — the reference the reused buffer must match.
func freshCheckpoint(m *Monitor) checkpoint {
	cp := checkpoint{
		retries:     slices.Clone(m.retries),
		lastReports: make(map[string]cachedReport),
		nodeStates:  make(map[string]nodeState),
		lost:        slices.Clone(m.lost),
		replicaIDs:  make(map[string][]string),
		replicaHome: maps.Clone(m.replicaHome),
	}
	for k, v := range m.lastReports {
		frozen := cachedReport{rep: v.rep, at: v.at}
		frozen.rep.Containers = slices.Clone(v.rep.Containers)
		cp.lastReports[k] = frozen
	}
	for k, v := range m.nodeStates {
		cp.nodeStates[k] = *v
	}
	for _, st := range m.services {
		cp.replicaIDs[st.spec.Name] = slices.Clone(st.replicaIDs)
	}
	return cp
}

// checkpointDiff describes how two checkpoints' decision state differs, or
// returns "" when it is equal. Empty and nil slices compare equal; the
// capture time is ignored.
func checkpointDiff(got, want *checkpoint) string {
	switch {
	case !slices.Equal(got.retries, want.retries):
		return fmt.Sprintf("retries %v, want %v", got.retries, want.retries)
	case !slices.Equal(got.lost, want.lost):
		return fmt.Sprintf("lost %v, want %v", got.lost, want.lost)
	case !maps.Equal(got.nodeStates, want.nodeStates):
		return fmt.Sprintf("node states %v, want %v", got.nodeStates, want.nodeStates)
	case !maps.EqualFunc(got.replicaIDs, want.replicaIDs, slices.Equal):
		return fmt.Sprintf("replica sets %v, want %v", got.replicaIDs, want.replicaIDs)
	case !maps.Equal(got.replicaHome, want.replicaHome):
		return fmt.Sprintf("replica homes %v, want %v", got.replicaHome, want.replicaHome)
	case !maps.EqualFunc(got.lastReports, want.lastReports, sameReport):
		return fmt.Sprintf("node reports %v, want %v", got.lastReports, want.lastReports)
	}
	return ""
}

func sameReport(a, b cachedReport) bool {
	ra, rb := a.rep, b.rep
	return a.at == b.at && ra.NodeID == rb.NodeID && ra.Capacity == rb.Capacity &&
		ra.Available == rb.Available && slices.Equal(ra.Containers, rb.Containers)
}

// TestCheckpointAllocFree pins CheckpointNow on a warm monitor to zero
// allocations, with every part of the decision state populated: node
// reports, a suspect and a dead node, a lost replica and its queued
// re-placement.
func TestCheckpointAllocFree(t *testing.T) {
	cl, m := setup(t, staticAlgo{})
	m.SelfHeal = DefaultSelfHealing()
	m.SelfHeal.Cooldown = time.Hour // keep the re-placement queued
	for _, name := range []string{"a", "b", "c"} {
		if err := m.AddService(spec(name), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := m.DeployInitial(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	cl.Advance(time.Second, 100*time.Millisecond)
	m.Faults = faults.New(faults.Config{Windows: []faults.Window{
		{Kind: faults.KindStats, Target: "node-0", From: 4 * time.Second, To: time.Hour},
		{Kind: faults.KindStats, Target: "node-1", From: 14 * time.Second, To: time.Hour},
	}})
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		now += 5 * time.Second
		m.Sample()
		m.Poll(now)
		m.MaybeCheckpoint(now)
	}
	if len(m.lost) == 0 || len(m.retries) == 0 || len(m.lastReports) == 0 ||
		health(m, "node-0") != NodeDead || health(m, "node-1") != NodeSuspect {
		t.Fatalf("warm-up left lost=%d retries=%d reports=%d node-0 %v node-1 %v",
			len(m.lost), len(m.retries), len(m.lastReports), health(m, "node-0"), health(m, "node-1"))
	}
	if allocs := testing.AllocsPerRun(100, func() { m.CheckpointNow(now) }); allocs != 0 {
		t.Errorf("CheckpointNow allocates %.1f objects/call, want 0", allocs)
	}
	want := freshCheckpoint(m)
	if d := checkpointDiff(m.lastCheckpoint, &want); d != "" {
		t.Errorf("reused checkpoint differs from a fresh copy: %s", d)
	}
}

// TestCheckpointReuseRestoresSnapshot drives a zoned plane through a zone
// outage and evacuation, and through a machine lost in a surviving zone,
// checkpointing every poll into the reused buffers.
// Every checkpoint must equal a fresh deep copy of the live state — so
// nodes that died and services that moved away leave no keys behind, also
// for the checkpoints refilled after an evacuation dropped lastCheckpoint.
// After the live state is then mutated, a restart must restore exactly the
// state at the last checkpoint.
func TestCheckpointReuseRestoresSnapshot(t *testing.T) {
	p := evacPlane(t, 8, 4, 0, faults.Window{
		Kind: faults.KindZoneOutage, Target: "0", From: 4 * time.Second, To: time.Hour,
	})
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := p.AddService(planeSpec(name, 1, 2, 2), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := p.DeployInitial(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	arbiters := p.Arbiters()
	zone0, zone1 := arbiters[0], arbiters[1]
	sawDropped, sawEvacuated := false, false
	var last []checkpoint
	for now := 5 * time.Second; now <= 60*time.Second; now += 5 * time.Second {
		if now == 10*time.Second {
			// A machine in a surviving zone dies for good: the detector
			// rules it dead and the sweep detaches it, so its report and
			// detector record must leave the checkpoint too.
			if _, err := p.global.RemoveNode("node-3"); err != nil {
				t.Fatal(err)
			}
			p.NoteNodeRemoved("node-3")
		}
		p.Sample()
		p.Poll(now)
		for _, m := range arbiters {
			if m.lastCheckpoint == nil && m.checkpointBuf.lastReports != nil {
				sawDropped = true // the next checkpoint refills a stale buffer
			}
		}
		p.MaybeCheckpoint(now)
		last = last[:0]
		for i, m := range arbiters {
			want := freshCheckpoint(m)
			if d := checkpointDiff(m.lastCheckpoint, &want); d != "" {
				t.Fatalf("t=%v zone %d: checkpoint differs from the live state: %s", now, i, d)
			}
			last = append(last, want)
		}
		if zone0.lookup("a") == nil {
			sawEvacuated = true
		}
	}
	_, reported := zone1.lastReports["node-3"]
	_, detected := zone1.nodeStates["node-3"]
	if !sawEvacuated || !sawDropped || reported || detected {
		t.Fatalf("scenario: evacuated zone 0 %v, dropped a checkpoint %v, node-3 still reported %v or tracked %v",
			sawEvacuated, sawDropped, reported, detected)
	}
	if len(zone0.lost) == 0 && len(zone0.nodeStates) == 0 {
		t.Fatal("zone 0 carries no self-healing state to restore")
	}

	// Diverge from the checkpoint: more polls, then direct edits to every
	// part of the live decision state, including the live report buffers.
	p.Poll(65 * time.Second)
	for _, m := range arbiters {
		m.retries = append(m.retries, pendingAction{lostID: "ghost"})
		m.lost = append(m.lost, lostReplica{id: "ghost", node: "node-0"})
		for _, l := range m.lost {
			m.replicaHome[l.id] = "elsewhere"
		}
		m.replicaHome["ghost"] = "node-0"
		for _, st := range m.services {
			st.replicaIDs = append(st.replicaIDs, "ghost")
		}
		for _, r := range m.lastReports {
			for i := range r.rep.Containers {
				r.rep.Containers[i].Inflight = -1
			}
		}
		m.nodeStates["ghost"] = &nodeState{missed: 9, health: NodeDead}
		for _, st := range m.nodeStates {
			st.missed++
		}
	}

	p.Restart(70 * time.Second)
	for i, m := range arbiters {
		got := freshCheckpoint(m)
		if d := checkpointDiff(&got, &last[i]); d != "" {
			t.Errorf("zone %d: restored state differs from the last checkpoint: %s", i, d)
		}
	}
	if rec := p.Recovery(); rec.CheckpointRestores != uint64(len(arbiters)) || rec.ColdRestarts != 0 {
		t.Errorf("recovery counts = %+v, want %d checkpoint restores", rec, len(arbiters))
	}
}
