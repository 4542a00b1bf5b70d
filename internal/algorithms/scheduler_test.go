package algorithms

import (
	"fmt"
	"reflect"
	"testing"

	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
)

// TestSchedulerDeterminismMatrix is the ICM half of the scheduler
// determinism acceptance: for every worker count × partitioner, SSSP,
// PageRank and EAT over random temporal graphs must produce bit-for-bit
// identical partitioned states and message totals when the same
// configuration runs twice. PageRank matters most here — it folds float rank
// mass in inbox order, so any nondeterminism in message emission or delivery
// across concurrent workers would flip low-order mantissa bits and fail the
// exact comparison. The min-fold algorithms (SSSP, EAT) must in addition
// match the single-worker run, whatever the placement. Run under -race in
// `make race` this doubles as the data-race gate for the parallel compute
// phase.
func TestSchedulerDeterminismMatrix(t *testing.T) {
	profiles := []gen.Profile{
		gen.Tiny("sched-mixed", 48, 4, 10, gen.MixedLife),
		gen.Tiny("sched-long", 36, 5, 8, gen.LongLife),
	}
	names := [3]string{"SSSP", "PageRank", "EAT"}

	for _, p := range profiles {
		g, err := gen.Generate(p, 7)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Name, err)
		}
		source := g.VertexAt(0).ID
		weights := g.WorkWeights()

		runAll := func(t *testing.T, workers int, balanced bool) [3]*core.Result {
			t.Helper()
			sssp := &SSSP{Source: source}
			pr := NewPageRank(g, 6, 0.85)
			eat := &EAT{Source: source}
			progs := [3]core.Program{sssp, pr, eat}
			opts := [3]core.Options{sssp.Options(), pr.Options(), eat.Options()}
			var out [3]*core.Result
			for i := range progs {
				o := opts[i]
				o.NumWorkers = workers
				if balanced {
					o.Partitioner = engine.PartitionBalanced(weights)
				}
				r, err := runWith(g, progs[i], o)
				if err != nil {
					t.Fatalf("%s %s: run: %v", p.Name, names[i], err)
				}
				out[i] = r
			}
			return out
		}
		single := runAll(t, 1, false)

		for _, workers := range []int{1, 3, 7} {
			for _, balanced := range []bool{false, true} {
				place := "modulo"
				if balanced {
					place = "balanced"
				}
				t.Run(fmt.Sprintf("%s/workers=%d/%s", p.Name, workers, place), func(t *testing.T) {
					base, got := runAll(t, workers, balanced), runAll(t, workers, balanced)
					for a := range got {
						for v := 0; v < g.NumVertices(); v++ {
							if !reflect.DeepEqual(base[a].State(v).Parts(), got[a].State(v).Parts()) {
								t.Fatalf("%s: vertex %d partitions differ between identical runs:\nfirst:  %v\nsecond: %v",
									names[a], v, base[a].State(v).Parts(), got[a].State(v).Parts())
							}
						}
						if bm, gm := base[a].Metrics, got[a].Metrics; bm.Messages != gm.Messages || bm.MessageBytes != gm.MessageBytes {
							t.Fatalf("%s: message totals differ between identical runs: %d/%d bytes vs %d/%d",
								names[a], gm.Messages, gm.MessageBytes, bm.Messages, bm.MessageBytes)
						}
					}
					for _, a := range []int{0, 2} { // SSSP, EAT
						for v := 0; v < g.NumVertices(); v++ {
							if !reflect.DeepEqual(single[a].State(v).Parts(), got[a].State(v).Parts()) {
								t.Fatalf("%s: vertex %d partitions diverge from the single-worker run:\nsingle: %v\n   got: %v",
									names[a], v, single[a].State(v).Parts(), got[a].State(v).Parts())
							}
						}
					}
				})
			}
		}
	}
}

// TestBalancedPartitionerSameResults checks PartitionBalanced end to end: a
// skew-aware static partition must leave min-fold algorithm results
// unchanged (message arrival order may legitimately differ across
// partitions, so order-sensitive float folds are out of scope here).
func TestBalancedPartitionerSameResults(t *testing.T) {
	p := gen.Tiny("sched-balance", 40, 4, 10, gen.MixedLife)
	g, err := gen.Generate(p, 11)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	source := g.VertexAt(0).ID
	weights := g.WorkWeights()

	run := func(balanced bool) [2]*core.Result {
		t.Helper()
		sssp := &SSSP{Source: source}
		eat := &EAT{Source: source}
		progs := [2]core.Program{sssp, eat}
		opts := [2]core.Options{sssp.Options(), eat.Options()}
		var out [2]*core.Result
		for i := range progs {
			o := opts[i]
			o.NumWorkers = 3
			if balanced {
				o.Partitioner = engine.PartitionBalanced(weights)
			}
			r, err := runWith(g, progs[i], o)
			if err != nil {
				t.Fatalf("run(balanced=%v): %v", balanced, err)
			}
			out[i] = r
		}
		return out
	}

	base, got := run(false), run(true)
	names := [2]string{"SSSP", "EAT"}
	for a := range got {
		for v := 0; v < g.NumVertices(); v++ {
			if !reflect.DeepEqual(base[a].State(v).Parts(), got[a].State(v).Parts()) {
				t.Fatalf("%s [balanced]: vertex %d partitions diverge:\nbase: %v\n got: %v",
					names[a], v, base[a].State(v).Parts(), got[a].State(v).Parts())
			}
		}
	}
}
