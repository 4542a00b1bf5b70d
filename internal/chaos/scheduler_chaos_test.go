package chaos

import (
	"reflect"
	"testing"
)

// TestChaosRollbackRestoresFrontiers proves rollback-and-replay restores the
// dense frontiers exactly: an SSSP run with seeded transport faults and an
// injected panic, checkpointing every superstep, must replay to the
// bit-identical states and deterministic metrics of a fault-free run. If a
// checkpoint restore ever resurrected a stale frontier — a slot missing,
// duplicated, or out of sync with its active flag — the replayed supersteps
// would compute a different vertex set and the message totals below would
// diverge.
func TestChaosRollbackRestoresFrontiers(t *testing.T) {
	base, err := chaosSSSP(t, 0, nil, nil)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	tr, err := NewTransport(3, TransportOptions{
		Seed: 11, Drops: 1, Corruptions: 1, Duplicates: 1, Delays: 1, Every: 4,
	})
	if err != nil {
		t.Fatalf("NewTransport: %v", err)
	}
	defer tr.Close()
	fp := NewFaultyProgram(PanicPlan{Superstep: 3, Vertex: AnyVertex})
	got, err := chaosSSSP(t, 1, tr, fp)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	if fp.Panics() < 1 {
		t.Fatalf("scheduled panic never fired")
	}
	if got.Metrics.Recoveries < 1 {
		t.Errorf("chaos run recovered %d times, want >= 1", got.Metrics.Recoveries)
	}
	for i := 0; i < base.Graph.NumVertices(); i++ {
		if !reflect.DeepEqual(base.State(i).Parts(), got.State(i).Parts()) {
			t.Errorf("vertex %d partitions diverged:\nfault-free: %v\nchaos:      %v",
				i, base.State(i).Parts(), got.State(i).Parts())
		}
	}
	bm, gm := base.Metrics, got.Metrics
	if bm.Supersteps != gm.Supersteps || bm.ComputeCalls != gm.ComputeCalls ||
		bm.ScatterCalls != gm.ScatterCalls || bm.Messages != gm.Messages ||
		bm.MessageBytes != gm.MessageBytes {
		t.Errorf("metrics diverged:\nfault-free: %v\nchaos:      %v", bm, gm)
	}
	if base.Stats != got.Stats {
		t.Errorf("ICM stats diverged:\nfault-free: %+v\nchaos:      %+v", base.Stats, got.Stats)
	}
}
