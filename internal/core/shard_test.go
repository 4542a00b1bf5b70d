package core_test

// In-process proof of the cluster execution model: driving core.Shards by
// hand through the Compute → AppendOutbound → Deliver → Barrier protocol must
// reproduce a single-process transported run bit for bit (same delivery
// order: own outbox first, then peers ascending), and a durable capture +
// restore into FRESH shards must replay to the identical final state —
// the property the process-kill chaos tests rely on.

import (
	"reflect"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/tgraph"
)

const testShards = 3

func newTestShards(t *testing.T, g *tgraph.Graph, algo string, p algorithms.Params) ([]*core.Shard, core.Options) {
	t.Helper()
	shards := make([]*core.Shard, testShards)
	var opts core.Options
	for i := range shards {
		prog, o, err := algorithms.New(g, algo, p)
		if err != nil {
			t.Fatal(err)
		}
		o.NumWorkers = testShards
		sh, err := core.NewShard(g, prog, o, i)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
		opts = o
	}
	return shards, opts
}

// driveShards runs the cluster protocol to completion. When captureAt > 0, a
// durable checkpoint of every shard is taken at the barrier after which the
// next superstep would be captureAt (the cluster's "about to execute s" gen
// semantics) and returned.
func driveShards(t *testing.T, shards []*core.Shard, opts core.Options, captureAt int) [][]byte {
	t.Helper()
	n := len(shards)
	if shards[0].Superstep() == 0 {
		for i, s := range shards {
			if err := s.Init(); err != nil {
				t.Fatalf("init shard %d: %v", i, err)
			}
		}
	}
	var ckpts [][]byte
	capture := func() {
		ckpts = make([][]byte, n)
		for i, s := range shards {
			data, err := s.CaptureDurable()
			if err != nil {
				t.Fatalf("capture shard %d: %v", i, err)
			}
			ckpts[i] = data
		}
	}
	for step := shards[0].Superstep(); ; step++ {
		if opts.MaxSupersteps > 0 && step > opts.MaxSupersteps {
			break
		}
		outs := make([][][]byte, n)
		for i, s := range shards {
			if err := s.Compute(); err != nil {
				t.Fatalf("superstep %d shard %d compute: %v", step, i, err)
			}
			outs[i] = make([][]byte, n)
			for d := range shards {
				if d == i {
					continue
				}
				var err error
				if outs[i][d], err = s.AppendOutbound(nil, d); err != nil {
					t.Fatalf("superstep %d shard %d outbound to %d: %v", step, i, d, err)
				}
			}
		}
		for d, s := range shards {
			var batches [][]byte
			for src := 0; src < n; src++ {
				if src != d {
					batches = append(batches, outs[src][d])
				}
			}
			if _, err := s.Deliver(batches); err != nil {
				t.Fatalf("superstep %d shard %d deliver: %v", step, d, err)
			}
		}
		var delivered int64
		active := 0
		for _, s := range shards {
			rep := s.Barrier()
			delivered += rep.Delivered
			active += rep.Active
		}
		if step+1 == captureAt {
			capture()
		}
		if delivered == 0 && active == 0 && !opts.ActivateAll {
			break
		}
	}
	return ckpts
}

func collectResult(t *testing.T, g *tgraph.Graph, shards []*core.Shard, opts core.Options) *core.Result {
	t.Helper()
	blobs := make([][]byte, len(shards))
	for i, s := range shards {
		b, err := s.EncodeOwnedStates()
		if err != nil {
			t.Fatalf("encode shard %d: %v", i, err)
		}
		blobs[i] = b
	}
	r, err := core.AssembleResult(g, opts.PayloadCodec, blobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func compareStates(t *testing.T, g *tgraph.Graph, got, want *core.Result) {
	t.Helper()
	for i := 0; i < g.NumVertices(); i++ {
		gs, ws := got.State(i), want.State(i)
		if (gs == nil) != (ws == nil) {
			t.Fatalf("vertex %d: state presence mismatch", i)
		}
		if gs == nil {
			continue
		}
		if !reflect.DeepEqual(gs.Parts(), ws.Parts()) {
			t.Errorf("vertex %d (%v):\n  cluster: %v\n  direct:  %v",
				i, g.VertexAt(i).ID, gs.Parts(), ws.Parts())
		}
	}
}

// TestShardMatchesTransportedRun drives the cluster protocol over the
// transit graph and compares against core.Run over a loopback TCP mesh with
// the same worker count — the configuration whose delivery order the shard
// protocol mirrors. PageRank makes the comparison float-order-sensitive, so
// passing means the orders genuinely match.
func TestShardMatchesTransportedRun(t *testing.T) {
	g := tgraph.TransitExample()
	for _, tc := range []struct {
		algo string
		p    algorithms.Params
	}{
		{algo: "sssp", p: algorithms.Params{Source: 0}},
		{algo: "eat", p: algorithms.Params{Source: 0}},
		{algo: "pr"},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			shards, opts := newTestShards(t, g, tc.algo, tc.p)
			driveShards(t, shards, opts, 0)
			got := collectResult(t, g, shards, opts)

			prog, ropts, err := algorithms.New(g, tc.algo, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			ropts.NumWorkers = testShards
			tp, err := engine.NewTCPTransport(testShards)
			if err != nil {
				t.Fatal(err)
			}
			defer tp.Close()
			ropts.Transport = tp
			want, err := core.Run(g, prog, ropts)
			if err != nil {
				t.Fatal(err)
			}
			compareStates(t, g, got, want)
		})
	}
}

// TestShardDurableReplay checkpoints mid-run, finishes the run, then builds
// FRESH shards (a replacement process per shard), restores them from the
// checkpoint bytes and replays — final states must be identical.
func TestShardDurableReplay(t *testing.T) {
	g := tgraph.TransitExample()
	for _, tc := range []struct {
		algo string
		p    algorithms.Params
	}{
		{algo: "sssp", p: algorithms.Params{Source: 0}},
		{algo: "pr"},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			shards, opts := newTestShards(t, g, tc.algo, tc.p)
			ckpts := driveShards(t, shards, opts, 3)
			if ckpts == nil {
				t.Fatal("run ended before the capture point; checkpoint superstep too late")
			}
			want := collectResult(t, g, shards, opts)

			replay, _ := newTestShards(t, g, tc.algo, tc.p)
			for i, s := range replay {
				if err := s.Init(); err != nil {
					t.Fatal(err)
				}
				if err := s.RestoreDurable(ckpts[i]); err != nil {
					t.Fatalf("restore shard %d: %v", i, err)
				}
				if got := s.Superstep(); got != 3 {
					t.Fatalf("restored shard %d at superstep %d, want 3", i, got)
				}
			}
			driveShards(t, replay, opts, 0)
			got := collectResult(t, g, replay, opts)
			compareStates(t, g, got, want)
		})
	}
}

// TestShardGating pins the unsupported-option errors.
func TestShardGating(t *testing.T) {
	g := tgraph.TransitExample()
	prog, opts, err := algorithms.New(g, "sssp", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewShard(g, prog, opts, 0); err == nil {
		t.Error("implicit NumWorkers accepted")
	}
	bad := opts
	bad.NumWorkers = 2
	bad.ActivateAll = true
	if _, err := core.NewShard(g, prog, bad, 0); err == nil {
		t.Error("ActivateAll without MaxSupersteps accepted")
	}
	bad = opts
	bad.NumWorkers = 2
	if _, err := core.NewShard(g, prog, bad, 2); err == nil {
		t.Error("out-of-range shard accepted")
	}
}
