package live

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	ival "graphite/internal/interval"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// randStream generates valid, time-ordered event batches that stress
// epoch derivation: new ids drawn below the current maximum as well as
// above it, several events per time-point (an entity added and removed,
// or a property set repeatedly, at one time), and property churn on
// vertices and edges. With rogue set it rarely removes a vertex that still
// has open edges, which no graph can hold.
type randStream struct {
	r      *rand.Rand
	rogue  bool
	t      ival.Time
	used   map[int64]bool // vertex and edge ids ever issued (never reused)
	max    int64          // the largest id issued
	verts  []tgraph.VertexID
	degree map[tgraph.VertexID]int // open incident edges
	edges  []tgraph.EdgeID
	tails  map[tgraph.EdgeID][2]tgraph.VertexID
}

func newRandStream(seed int64, rogue bool) *randStream {
	return &randStream{r: rand.New(rand.NewSource(seed)), rogue: rogue, used: map[int64]bool{},
		degree: map[tgraph.VertexID]int{}, tails: map[tgraph.EdgeID][2]tgraph.VertexID{}}
}

// freshID draws an unused id: half the time just above the largest issued
// so far, which epoch derivation handles in place, otherwise from a space a
// few times larger than the ids issued, so it mostly lands below the
// maximum and forces a merge.
func (s *randStream) freshID() int64 {
	for {
		id := s.r.Int63n(int64(4*len(s.used) + 16))
		if s.r.Intn(2) == 0 {
			id = s.max + 1 + s.r.Int63n(3)
		}
		if !s.used[id] {
			s.used[id] = true
			s.max = max(s.max, id)
			return id
		}
	}
}

func (s *randStream) batch(n int) []stream.Event {
	var out []stream.Event
	label := func() string { return []string{"a", "b"}[s.r.Intn(2)] }
	for len(out) < n {
		if s.r.Intn(3) == 0 {
			s.t++
		}
		ev := stream.Event{T: s.t}
		switch k := s.r.Intn(20); {
		case k < 5 || len(s.verts) < 2:
			ev.Op, ev.V = stream.AddVertex, tgraph.VertexID(s.freshID())
			s.verts = append(s.verts, ev.V)
		case k < 10:
			ev.Op, ev.E = stream.AddEdge, tgraph.EdgeID(s.freshID())
			ev.Src, ev.Dst = s.verts[s.r.Intn(len(s.verts))], s.verts[s.r.Intn(len(s.verts))]
			s.edges = append(s.edges, ev.E)
			s.tails[ev.E] = [2]tgraph.VertexID{ev.Src, ev.Dst}
			s.degree[ev.Src]++
			s.degree[ev.Dst]++
		case k < 12 && len(s.edges) > 0:
			i := s.r.Intn(len(s.edges))
			ev.Op, ev.E = stream.RemoveEdge, s.edges[i]
			s.edges[i] = s.edges[len(s.edges)-1]
			s.edges = s.edges[:len(s.edges)-1]
			tails := s.tails[ev.E]
			s.degree[tails[0]]--
			s.degree[tails[1]]--
		case k < 14:
			i := s.r.Intn(len(s.verts))
			v := s.verts[i]
			if s.degree[v] > 0 && (!s.rogue || s.r.Intn(40) != 0) {
				continue
			}
			ev.Op, ev.V = stream.RemoveVertex, v
			s.verts[i] = s.verts[len(s.verts)-1]
			s.verts = s.verts[:len(s.verts)-1]
		case k < 17:
			ev.Op, ev.V = stream.SetVertexProp, s.verts[s.r.Intn(len(s.verts))]
			ev.Label, ev.Value = label(), s.r.Int63n(100)
		case len(s.edges) > 0:
			ev.Op, ev.E = stream.SetEdgeProp, s.edges[s.r.Intn(len(s.edges))]
			ev.Label, ev.Value = label(), s.r.Int63n(100)
		default:
			continue
		}
		out = append(out, ev)
	}
	return out
}

// TestEpochsMatchOracle is the epoch differential: over seeded random
// streams, with and without a horizon, every epoch Apply publishes — and
// every epoch Open recovers, from a mapped no-tail snapshot, from a
// snapshot plus a WAL tail, and from a plain log — equals the map-walking
// materializer's graph, and Apply fails exactly when the oracle does.
func TestEpochsMatchOracle(t *testing.T) {
	var valid, wedged, recovered int
	for seed := int64(1); seed <= 12; seed++ {
		for _, horizon := range []ival.Time{0, 25} {
			v, w, rec := runDifferential(t, seed, horizon)
			valid, wedged, recovered = valid+v, wedged+w, recovered+rec
		}
	}
	t.Logf("%d valid epochs, %d wedged streams, %d recoveries", valid, wedged, recovered)
	if valid < 500 || wedged == 0 || recovered < 40 {
		t.Fatalf("weak coverage: %d valid epochs, %d wedged streams, %d recoveries", valid, wedged, recovered)
	}
}

func runDifferential(t *testing.T, seed int64, horizon ival.Time) (valid, wedged, recovered int) {
	t.Helper()
	path := walPath(t)
	opts := Options{Horizon: horizon, NoSync: true}
	g, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { g.Close() }()
	o := newOracle()
	gen := newRandStream(seed, true)
	check := func(what string) {
		t.Helper()
		want, err := o.graph(horizon)
		if err != nil {
			t.Fatalf("seed %d horizon %d %s: oracle failed on an accepted stream: %v", seed, horizon, what, err)
		}
		ep := g.Acquire()
		defer ep.Release()
		if err := tgraph.Equal(want, ep.Graph()); err != nil {
			t.Fatalf("seed %d horizon %d %s: epoch %d differs from the oracle: %v", seed, horizon, what, ep.ID(), err)
		}
	}
	reopen := func(what string) {
		t.Helper()
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if g, err = Open(path, opts); err != nil {
			t.Fatalf("seed %d horizon %d: reopen (%s): %v", seed, horizon, what, err)
		}
		recovered++
		check(what)
	}
	// apply lands one batch on both sides; false means both rejected it
	// and the graph is wedged.
	apply := func(batch []stream.Event, what string) bool {
		t.Helper()
		_, err := g.Apply(batch)
		o.apply(batch)
		if _, werr := o.graph(horizon); werr != nil {
			if err == nil {
				t.Fatalf("seed %d horizon %d %s: Apply accepted a batch the oracle cannot build: %v", seed, horizon, what, werr)
			}
			return false
		}
		if err != nil {
			t.Fatalf("seed %d horizon %d %s: Apply: %v", seed, horizon, what, err)
		}
		check(what)
		valid++
		return true
	}
	for step := 1; step <= 60; step++ {
		if !apply(gen.batch(1+gen.r.Intn(12)), "apply") {
			return valid, 1, recovered
		}
		switch step % 20 {
		case 5: // compacted, nothing after: the epoch is served off the mapping
			if _, err := g.Compact(); err != nil {
				t.Fatal(err)
			}
			reopen("mapped")
			if rec := g.LastRecovery(); !rec.FromSnapshot || rec.TailBatches != 0 {
				t.Fatalf("expected a mapped no-tail recovery, got %+v", rec)
			}
		case 12: // snapshot plus a WAL tail
			if _, err := g.Compact(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if !apply(gen.batch(1+gen.r.Intn(8)), "tail") {
					return valid, 1, recovered
				}
			}
			reopen("snapshot+tail")
			if rec := g.LastRecovery(); !rec.FromSnapshot || rec.TailBatches != 3 {
				t.Fatalf("expected a snapshot+3-batch recovery, got %+v", rec)
			}
		case 19: // whatever the log holds now
			reopen("replay")
		}
	}
	return valid, 0, recovered
}

// TestReaderIsolation pins copy-on-write publication: a reader holding an
// epoch derived from a mapped epoch sees a byte-identical graph while 50
// further batches land, and after the mapped predecessor is unmapped.
// Run under -race it also proves no published array is written.
func TestReaderIsolation(t *testing.T) {
	path := walPath(t)
	opts := Options{NoSync: true}
	g, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen := newRandStream(7, false)
	for i := 0; i < 30; i++ {
		if _, err := g.Apply(gen.batch(10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if g, err = Open(path, opts); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if rec := g.LastRecovery(); !rec.FromSnapshot || rec.TailBatches != 0 {
		t.Fatalf("expected a mapped epoch, got %+v", rec)
	}
	mapped := g.Acquire()
	mappedBytes := tgraph.EncodeSnapshot(mapped.Graph(), nil)
	if _, err := g.Apply(gen.batch(10)); err != nil {
		t.Fatal(err)
	}
	held := g.Acquire()
	want := tgraph.EncodeSnapshot(held.Graph(), nil)

	var wg sync.WaitGroup
	wg.Add(1)
	applyErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := g.Apply(gen.batch(10)); err != nil {
				applyErr <- err
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if got := tgraph.EncodeSnapshot(held.Graph(), nil); !bytes.Equal(got, want) {
			t.Fatalf("held epoch changed while batches landed (read %d)", i)
		}
	}
	wg.Wait()
	select {
	case err := <-applyErr:
		t.Fatal(err)
	default:
	}
	if got := tgraph.EncodeSnapshot(mapped.Graph(), nil); !bytes.Equal(got, mappedBytes) {
		t.Fatal("mapped epoch changed while pinned")
	}
	live := g.EpochsLive()
	mapped.Release() // the last reference: the mapping goes away now
	if g.EpochsLive() != live-1 {
		t.Fatalf("mapped epoch not reclaimed: %d live, was %d", g.EpochsLive(), live)
	}
	if got := tgraph.EncodeSnapshot(held.Graph(), nil); !bytes.Equal(got, want) {
		t.Fatal("held epoch changed after its mapped predecessor was unmapped")
	}
	held.Release()
}

// ingestStream is the live-ingest benchmark's generator: each time unit
// adds two vertices and up to six edges carrying two properties between
// random existing vertices, and half the time removes an open edge. Ids
// only grow.
type ingestStream struct {
	r            *rand.Rand
	t            ival.Time
	nextV, nextE int64
	open         []int64
	buf          []stream.Event
}

func (s *ingestStream) next(n int) []stream.Event {
	for len(s.buf) < n {
		s.t++
		if len(s.open) > 0 && s.r.Intn(2) == 0 {
			i := s.r.Intn(len(s.open))
			s.buf = append(s.buf, stream.Event{Op: stream.RemoveEdge, T: s.t, E: tgraph.EdgeID(s.open[i])})
			s.open[i] = s.open[len(s.open)-1]
			s.open = s.open[:len(s.open)-1]
		}
		for i := 0; i < 2; i++ {
			s.buf = append(s.buf, stream.Event{Op: stream.AddVertex, T: s.t, V: tgraph.VertexID(s.nextV)})
			s.nextV++
		}
		for i := 0; i < 6; i++ {
			src, dst := s.r.Int63n(s.nextV), s.r.Int63n(s.nextV)
			if src == dst {
				continue
			}
			e := tgraph.EdgeID(s.nextE)
			s.nextE++
			s.buf = append(s.buf,
				stream.Event{Op: stream.AddEdge, T: s.t, E: e, Src: tgraph.VertexID(src), Dst: tgraph.VertexID(dst)},
				stream.Event{Op: stream.SetEdgeProp, T: s.t, E: e, Label: tgraph.PropTravelTime, Value: 1 + s.r.Int63n(3)},
				stream.Event{Op: stream.SetEdgeProp, T: s.t, E: e, Label: tgraph.PropTravelCost, Value: 1 + s.r.Int63n(9)})
			s.open = append(s.open, int64(e))
		}
	}
	out := append([]stream.Event(nil), s.buf[:n]...)
	s.buf = append(s.buf[:0], s.buf[n:]...)
	return out
}

// BenchmarkApply times publishing one 64-event batch over the live-ingest
// base: 65,536 events, about 6.5k vertices and 19.5k edges.
func BenchmarkApply(b *testing.B) {
	g, err := Open(b.TempDir()+"/bench.wal", Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	gen := &ingestStream{r: rand.New(rand.NewSource(1))}
	for n := 0; n < 65536; n += 4096 {
		if _, err := g.Apply(gen.next(4096)); err != nil {
			b.Fatal(err)
		}
	}
	batches := make([][]stream.Event, b.N)
	for i := range batches {
		batches[i] = gen.next(64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		if _, err := g.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}
