package tgraph

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	ival "graphite/internal/interval"
)

// patchOracle applies d to g's rows by id and builds the result through
// Builder in ascending id order: the validated reference Patch must match.
func patchOracle(g *Graph, d Delta) (*Graph, error) {
	vs := map[VertexID]Vertex{}
	es := map[EdgeID]Edge{}
	if g != nil {
		for _, v := range g.vertices {
			vs[v.ID] = v
		}
		for _, e := range g.edges {
			es[e.ID] = e
		}
	}
	for _, id := range d.DelVertices {
		delete(vs, id)
	}
	for _, id := range d.DelEdges {
		delete(es, id)
	}
	for _, v := range d.Vertices {
		vs[v.ID] = v
	}
	for _, e := range d.Edges {
		es[e.ID] = e
	}
	b := NewBuilder(len(vs), len(es))
	vids := make([]VertexID, 0, len(vs))
	for id := range vs {
		vids = append(vids, id)
	}
	slices.Sort(vids)
	for _, id := range vids {
		v := vs[id]
		b.AddVertex(id, v.Lifespan)
		for label, entries := range v.Props.All() {
			for _, p := range entries {
				b.SetVertexProp(id, label, p.Interval, p.Value)
			}
		}
	}
	eids := make([]EdgeID, 0, len(es))
	for id := range es {
		eids = append(eids, id)
	}
	slices.Sort(eids)
	for _, id := range eids {
		e := es[id]
		b.AddEdge(id, e.Src, e.Dst, e.Lifespan)
		for label, entries := range e.Props.All() {
			for _, p := range entries {
				b.SetEdgeProp(id, label, p.Interval, p.Value)
			}
		}
	}
	return b.Build()
}

// randomDelta draws a delta against g. With inPlace set it only replaces
// rows and appends ids above the maximum, so Patch takes its sharing path.
func randomDelta(r *rand.Rand, g *Graph, inPlace bool) Delta {
	life := func() ival.Interval {
		s := ival.Time(r.Intn(40))
		if r.Intn(3) == 0 {
			return ival.From(s)
		}
		return ival.New(s, s+1+ival.Time(r.Intn(60)))
	}
	props := func(l ival.Interval) Props {
		var p Props
		if r.Intn(2) == 0 {
			return p
		}
		at := l.Start + ival.Time(r.Intn(5))
		if iv := ival.New(at, at+1+ival.Time(r.Intn(4))).Intersect(l); iv.Valid() {
			p.Add("w", PropEntry{Interval: iv, Value: r.Int63n(100)})
		}
		return p
	}
	vrows := map[VertexID]Vertex{}
	for _, v := range g.vertices {
		vrows[v.ID] = v
	}
	maxV := VertexID(0)
	if n := len(g.vertices); n > 0 {
		maxV = g.vertices[n-1].ID
	}
	var d Delta
	for i, v := range g.vertices {
		switch r.Intn(30) {
		case 0, 3, 4: // new lifespan: may strand its edges
			l := v.Lifespan
			if r.Intn(4) == 0 {
				l = life()
			} else if l.End != ival.Infinity {
				l.End += ival.Time(r.Intn(3))
			}
			d.Vertices = append(d.Vertices, Vertex{ID: v.ID, Lifespan: l, Props: props(l)})
		case 1:
			if !inPlace {
				d.DelVertices = append(d.DelVertices, v.ID)
			}
		case 2: // a gap id below the maximum
			if id := v.ID - 1; !inPlace && id >= 0 && (i == 0 || g.vertices[i-1].ID < id) {
				l := life()
				d.Vertices = append(d.Vertices, Vertex{ID: id, Lifespan: l, Props: props(l)})
			}
		}
	}
	for k := 1 + r.Intn(4); k > 0; k-- {
		maxV += VertexID(1 + r.Intn(3))
		l := life()
		d.Vertices = append(d.Vertices, Vertex{ID: maxV, Lifespan: l, Props: props(l)})
	}
	slices.SortFunc(d.Vertices, func(a, b Vertex) int { return int(a.ID - b.ID) })
	for _, v := range d.Vertices {
		vrows[v.ID] = v
	}
	ids := make([]VertexID, 0, len(vrows))
	for id := range vrows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	edgeBetween := func(id EdgeID, src, dst VertexID) (Edge, bool) {
		hull := vrows[src].Lifespan.Intersect(vrows[dst].Lifespan)
		if r.Intn(20) == 0 {
			hull = life() // probably outlives an endpoint
		}
		if !hull.Valid() {
			return Edge{}, false
		}
		return Edge{ID: id, Src: src, Dst: dst, Lifespan: hull, Props: props(hull)}, true
	}
	maxE := EdgeID(0)
	if n := len(g.edges); n > 0 {
		maxE = g.edges[n-1].ID
	}
	for _, e := range g.edges {
		switch r.Intn(20) {
		case 0:
			if ne, ok := edgeBetween(e.ID, e.Src, e.Dst); ok {
				d.Edges = append(d.Edges, ne)
			}
		case 1:
			if !inPlace {
				d.DelEdges = append(d.DelEdges, e.ID)
			}
		}
	}
	for k := r.Intn(6); k > 0 && len(ids) > 0; k-- {
		maxE += EdgeID(1 + r.Intn(2))
		if ne, ok := edgeBetween(maxE, ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]); ok {
			d.Edges = append(d.Edges, ne)
		}
	}
	return d
}

func cloneGraph(t *testing.T, g *Graph) *Graph {
	t.Helper()
	c, err := ReadSnapshot(bytes.NewReader(EncodeSnapshot(g, nil)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPatchMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var ok, failed int
	for round := 0; round < 400; round++ {
		g := buildArbitrary(uint64(round), 1+r.Intn(30), r.Intn(80))
		before := cloneGraph(t, g)
		for step := 0; step < 4; step++ {
			d := randomDelta(r, g, round%2 == 0)
			want, werr := patchOracle(g, d)
			got, err := Patch(g, d)
			if (err != nil) != (werr != nil) {
				t.Fatalf("round %d step %d: Patch err %v, Builder err %v", round, step, err, werr)
			}
			if e := Equal(before, g); e != nil {
				t.Fatalf("round %d step %d: Patch modified its base: %v", round, step, e)
			}
			if err != nil {
				failed++
				break
			}
			ok++
			if e := Equal(want, got); e != nil {
				t.Fatalf("round %d step %d: Patch differs from Builder: %v", round, step, e)
			}
			for _, v := range want.vertices {
				if got.IndexOf(v.ID) != want.IndexOf(v.ID) {
					t.Fatalf("round %d step %d: IndexOf(%d) = %d, want %d", round, step, v.ID, got.IndexOf(v.ID), want.IndexOf(v.ID))
				}
			}
			g, before = got, cloneGraph(t, got)
		}
	}
	if ok < 200 || failed < 20 {
		t.Fatalf("unbalanced draw: %d valid patches, %d rejected", ok, failed)
	}
}

func TestPatchSharesUntouchedRows(t *testing.T) {
	g := buildArbitrary(3, 40, 120)
	last := g.vertices[len(g.vertices)-1]
	e0 := g.edges[0]
	e0.Props = Props{}
	d := Delta{
		Vertices: []Vertex{{ID: last.ID + 1, Lifespan: ival.Universe}},
		Edges:    []Edge{e0, {ID: g.edges[len(g.edges)-1].ID + 1, Src: last.ID + 1, Dst: last.ID + 1, Lifespan: ival.New(1, 2)}},
	}
	ng, err := Patch(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumVertices() != g.NumVertices()+1 || ng.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("sizes %d/%d", ng.NumVertices(), ng.NumEdges())
	}
	shared := 0
	for v := range g.out {
		if len(g.out[v]) > 0 && &ng.out[v][0] == &g.out[v][0] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no adjacency row shared with the base")
	}
	for i := 1; i < g.NumEdges(); i++ {
		if p := g.edges[i].Props; p.Len() > 0 && &ng.edges[i].Props.entries[0][0] != &p.entries[0][0] {
			t.Fatalf("edge %d props copied", g.edges[i].ID)
		}
	}
	// A base decoded from a snapshot aliases its bytes: nothing may be shared.
	m := cloneGraph(t, g)
	mg, err := Patch(m, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(ng, mg); err != nil {
		t.Fatal(err)
	}
	for v := range m.out {
		if len(m.out[v]) > 0 && &mg.out[v][0] == &m.out[v][0] {
			t.Fatalf("row %d of a borrowed base shared", v)
		}
	}
}

func TestPatchErrors(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		name string
		d    Delta
		want error
	}{
		{"unsorted delta", Delta{Vertices: []Vertex{{ID: 9, Lifespan: ival.Universe}, {ID: 8, Lifespan: ival.Universe}}}, ErrNotIDOrdered},
		{"upserted and deleted", Delta{Vertices: []Vertex{{ID: 9, Lifespan: ival.Universe}}, DelVertices: []VertexID{9}}, ErrDuplicateVertex},
		{"invalid lifespan", Delta{Vertices: []Vertex{{ID: 9, Lifespan: ival.New(3, 3)}}}, ErrInvalidLifespan},
		{"shrunk endpoint", Delta{Vertices: []Vertex{{ID: 3, Lifespan: ival.New(2, 3)}}}, ErrEdgeOutlives},
		{"deleted endpoint", Delta{DelVertices: []VertexID{4}}, ErrDanglingEdge},
		{"dangling new edge", Delta{Edges: []Edge{{ID: 20, Src: 1, Dst: 99, Lifespan: ival.New(0, 1)}}}, ErrDanglingEdge},
		{"prop outside", Delta{Vertices: []Vertex{{ID: 9, Lifespan: ival.New(0, 2), Props: propsOf("p", ival.New(1, 5))}}}, ErrPropOutlives},
	}
	for _, c := range cases {
		if _, err := Patch(g, c.d); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	r := reordered(g, 1)
	if _, err := Patch(r, Delta{}); !errors.Is(err, ErrNotIDOrdered) {
		t.Errorf("reordered base: err = %v", err)
	}
}

func propsOf(label string, iv ival.Interval) Props {
	var p Props
	p.Add(label, PropEntry{Interval: iv, Value: 1})
	return p
}
