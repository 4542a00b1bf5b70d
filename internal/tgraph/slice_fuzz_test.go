package tgraph

import (
	"bytes"
	"testing"

	ival "graphite/internal/interval"
)

// builderSlice is slicing through a full Builder round trip — what Slice
// did before it became a single clipping pass — kept as Slice's oracle.
func builderSlice(g *Graph, window ival.Interval) (*Graph, error) {
	b := NewBuilder(g.NumVertices(), g.NumEdges())
	for i := range g.vertices {
		v := &g.vertices[i]
		life := v.Lifespan.Intersect(window)
		if life.IsEmpty() {
			continue
		}
		b.AddVertex(v.ID, life)
		for label, entries := range v.Props.All() {
			for _, p := range entries {
				if x := p.Interval.Intersect(window); !x.IsEmpty() {
					b.SetVertexProp(v.ID, label, x, p.Value)
				}
			}
		}
	}
	for i := range g.edges {
		e := &g.edges[i]
		life := e.Lifespan.Intersect(window)
		if life.IsEmpty() {
			continue
		}
		b.AddEdge(e.ID, e.Src, e.Dst, life)
		for label, entries := range e.Props.All() {
			for _, p := range entries {
				if x := p.Interval.Intersect(window); !x.IsEmpty() {
					b.SetEdgeProp(e.ID, label, x, p.Value)
				}
			}
		}
	}
	return b.Build()
}

// reordered rebuilds g with its vertex and edge tables rotated by k rows,
// so dense order is no longer id order.
func reordered(g *Graph, k int) *Graph {
	nv, ne := g.NumVertices(), g.NumEdges()
	b := NewBuilder(nv, ne)
	for i := 0; i < nv; i++ {
		v := g.VertexAt((i + k) % nv)
		b.AddVertex(v.ID, v.Lifespan)
		b.vertices[len(b.vertices)-1].Props = v.Props
	}
	for i := 0; i < ne; i++ {
		e := g.Edge((i + k) % ne)
		b.AddEdge(e.ID, e.Src, e.Dst, e.Lifespan)
		b.edges[len(b.edges)-1].Props = e.Props
	}
	return b.MustBuild()
}

// sliceForms returns g in the three index forms Slice handles: id-ordered
// with a hash index, reordered with a hash index, and a reordered decoded
// snapshot (sorted permutation).
func sliceForms(g *Graph, k int) map[string]*Graph {
	r := reordered(g, k)
	m, err := ReadSnapshot(bytes.NewReader(EncodeSnapshot(r, nil)))
	if err != nil {
		panic(err)
	}
	return map[string]*Graph{"ordered": g, "reordered": r, "snapshot": m}
}

func checkSlice(t *testing.T, g *Graph, w ival.Interval) {
	t.Helper()
	got, err := Slice(g, w)
	if err != nil {
		t.Fatalf("Slice %v: %v", w, err)
	}
	want, err := builderSlice(g, w)
	if err != nil {
		t.Fatalf("builder slice %v: %v", w, err)
	}
	if err := Equal(want, got); err != nil {
		t.Fatalf("Slice %v differs from the Builder round trip: %v", w, err)
	}
	for i := range g.vertices {
		id := g.vertices[i].ID
		if a, b := got.IndexOf(id), want.IndexOf(id); a != b {
			t.Fatalf("Slice %v: IndexOf(%d) = %d, want %d", w, id, a, b)
		}
	}
	if got.IndexOf(-1) != -1 {
		t.Fatalf("Slice %v: IndexOf of an absent id found a vertex", w)
	}
	again, err := Slice(got, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(got, again); err != nil {
		t.Fatalf("Slice %v is not idempotent: %v", w, err)
	}
}

// FuzzSlice checks the clipping-pass Slice against Builder-based slicing
// over arbitrary graphs, windows and index forms.
func FuzzSlice(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(40), uint8(5), uint8(10), uint8(3))
	f.Add(uint64(7), uint8(60), uint8(200), uint8(0), uint8(255), uint8(1))
	f.Add(uint64(13), uint8(3), uint8(9), uint8(40), uint8(0), uint8(0))
	f.Add(uint64(99), uint8(120), uint8(90), uint8(48), uint8(2), uint8(250))
	for seed := uint64(0); seed < 20; seed++ {
		f.Add(seed, uint8(40), uint8(90), uint8(seed%30), uint8(seed*7%40), uint8(seed+1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nv, ne, start, length, rot uint8) {
		g := buildArbitrary(seed, int(nv), int(ne))
		w := ival.New(ival.Time(start), ival.Time(start)+ival.Time(length))
		if length == 255 {
			w = ival.From(ival.Time(start))
		}
		for _, form := range sliceForms(g, int(rot)) {
			checkSlice(t, form, w)
		}
	})
}

func TestSliceSharesPropsInsideWindow(t *testing.T) {
	g := buildArbitrary(5, 50, 120)
	s, err := Slice(g, ival.Universe)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i := range s.edges {
		if e := &s.edges[i]; e.Props.Len() > 0 {
			if &e.Props.entries[0][0] != &g.edges[i].Props.entries[0][0] {
				t.Fatalf("edge %d: props inside the window were copied", e.ID)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("fixture has no edge properties")
	}
}

func BenchmarkSlice(b *testing.B) {
	// The live-ingest base size: ~6.5k vertices, ~19.5k edges.
	g := buildArbitrary(1, 6500, 19500)
	w := ival.New(10, 40)
	for name, slice := range map[string]func(*Graph, ival.Interval) (*Graph, error){
		"clip": Slice, "builder": builderSlice,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := slice(g, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
