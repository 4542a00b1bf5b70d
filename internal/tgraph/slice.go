package tgraph

import (
	"cmp"
	"slices"

	ival "graphite/internal/interval"
)

// Slice materializes the sub-graph restricted to a time window: vertex,
// edge and property lifespans are clipped to the window and entities that do
// not exist inside it are dropped. The result is a valid temporal graph in
// its own right (the constraints survive clipping because containment is
// preserved under intersection with a fixed window), so Slice builds it in
// one clipping pass over g in g's dense order, without re-validating: a
// property set whose entries all lie inside the window is shared with g,
// edge endpoints are remapped rather than looked up, and g's id index is
// filtered rather than rebuilt. Offering window queries over temporal
// property graphs is part of the paper's stated future work.
func Slice(g *Graph, window ival.Interval) (*Graph, error) {
	// A counting pass sizes every table and the property slab exactly:
	// sliced graphs are retained by result caches, so slack is held memory.
	var nv, ne int
	var slab propSlab
	for i := range g.vertices {
		if v := &g.vertices[i]; v.Lifespan.Intersects(window) {
			nv++
			slab.reserve(v.Props, window)
		}
	}
	for i := range g.edges {
		if e := &g.edges[i]; e.Lifespan.Intersects(window) {
			ne++
			slab.reserve(e.Props, window)
		}
	}
	slab.alloc()
	vmap := make([]int32, len(g.vertices))
	verts := make([]Vertex, 0, nv)
	for i := range g.vertices {
		v := &g.vertices[i]
		life := v.Lifespan.Intersect(window)
		if life.IsEmpty() {
			vmap[i] = -1
			continue
		}
		vmap[i] = int32(len(verts))
		verts = append(verts, Vertex{ID: v.ID, Lifespan: life, Props: slab.clip(v.Props, window)})
	}
	edges := make([]Edge, 0, ne)
	srcIdx := make([]int32, 0, ne)
	dstIdx := make([]int32, 0, ne)
	for i := range g.edges {
		e := &g.edges[i]
		life := e.Lifespan.Intersect(window)
		if life.IsEmpty() {
			continue
		}
		// A clipped edge is non-empty only inside both endpoints' clipped
		// lifespans, so both endpoints survived.
		edges = append(edges, Edge{ID: e.ID, Src: e.Src, Dst: e.Dst, Lifespan: life, Props: slab.clip(e.Props, window)})
		srcIdx = append(srcIdx, vmap[g.srcIdx[i]])
		dstIdx = append(dstIdx, vmap[g.dstIdx[i]])
	}
	var vsorted []int32
	switch {
	case g.vindex == nil && g.vsorted == nil, g.idOrdered:
		// Ascending ids stay ascending under filtering.
	case g.vsorted != nil:
		vsorted = make([]int32, 0, len(verts))
		for _, vi := range g.vsorted {
			if k := vmap[vi]; k >= 0 {
				vsorted = append(vsorted, k)
			}
		}
	default:
		vsorted = sortedPermutation(verts)
	}
	return newGraph(verts, edges, srcIdx, dstIdx, vsorted), nil
}

// sortedPermutation returns the vertex indices in ascending id order, or
// nil when the table already is.
func sortedPermutation(verts []Vertex) []int32 {
	if idsAscend(verts, vertexID) {
		return nil
	}
	perm := make([]int32, len(verts))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(verts[a].ID, verts[b].ID) })
	return perm
}

// propSlab backs the property sets Slice clips: entries, labels and label
// runs go into three shared arrays, sized up front by reserve, and each
// clipped set is a pair of capacity-limited subslices of them.
type propSlab struct {
	nentries, nlabels int
	entries           []PropEntry
	labels            []string
	runs              [][]PropEntry
}

// inside reports whether every entry of p lies inside the window, so p
// can be shared as it is.
func inside(p Props, window ival.Interval) bool {
	for _, entries := range p.entries {
		for _, e := range entries {
			if !window.ContainsInterval(e.Interval) {
				return false
			}
		}
	}
	return true
}

// reserve counts the room clip will need for p.
func (s *propSlab) reserve(p Props, window ival.Interval) {
	if inside(p, window) {
		return
	}
	s.nlabels += len(p.labels)
	for _, entries := range p.entries {
		s.nentries += len(entries)
	}
}

func (s *propSlab) alloc() {
	s.entries = make([]PropEntry, 0, s.nentries)
	s.labels = make([]string, 0, s.nlabels)
	s.runs = make([][]PropEntry, 0, s.nlabels)
}

// clip restricts p to the window, returning p itself when every entry
// already lies inside it. Labels left without entries are dropped.
func (s *propSlab) clip(p Props, window ival.Interval) Props {
	if inside(p, window) {
		return p
	}
	lo := len(s.runs)
	for li, entries := range p.entries {
		off := len(s.entries)
		for _, e := range entries {
			if x := e.Interval.Intersect(window); !x.IsEmpty() {
				s.entries = append(s.entries, PropEntry{Interval: x, Value: e.Value})
			}
		}
		if n := len(s.entries); n > off {
			s.labels = append(s.labels, p.labels[li])
			s.runs = append(s.runs, s.entries[off:n:n])
		}
	}
	hi := len(s.runs)
	if hi == lo {
		return Props{}
	}
	return Props{labels: s.labels[lo:hi:hi], entries: s.runs[lo:hi:hi]}
}

// History reports the lifespan, per-label property timeline and temporal
// degree profile of one vertex — the "vertex history" query of a temporal
// property graph store.
type History struct {
	ID       VertexID
	Lifespan ival.Interval
	Props    Props
	// OutDegree and InDegree are partitioned by the intervals over which
	// the degree is constant.
	OutDegree []DegreePoint
	InDegree  []DegreePoint
}

// DegreePoint is one constant-degree interval.
type DegreePoint struct {
	Interval ival.Interval
	Degree   int
}

// VertexHistory extracts the history of the vertex with the given id, or
// nil if absent.
func (g *Graph) VertexHistory(id VertexID) *History {
	vi := g.IndexOf(id)
	if vi < 0 {
		return nil
	}
	v := g.VertexAt(vi)
	return &History{
		ID:        v.ID,
		Lifespan:  v.Lifespan,
		Props:     v.Props,
		OutDegree: degreeProfile(g, v.Lifespan, g.OutEdges(vi)),
		InDegree:  degreeProfile(g, v.Lifespan, g.InEdges(vi)),
	}
}

// degreeProfile partitions the lifespan at edge boundaries and annotates
// each piece with the number of alive edges.
func degreeProfile(g *Graph, life ival.Interval, edges []int32) []DegreePoint {
	bounds := []ival.Time{life.Start, life.End}
	for _, ei := range edges {
		x := g.edges[ei].Lifespan.Intersect(life)
		if !x.IsEmpty() {
			bounds = append(bounds, x.Start, x.End)
		}
	}
	// Insertion sort: boundary lists are short.
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	var out []DegreePoint
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		piece := ival.New(bounds[i], bounds[i+1])
		deg := 0
		for _, ei := range edges {
			if g.edges[ei].Lifespan.Contains(piece.Start) {
				deg++
			}
		}
		if n := len(out); n > 0 && out[n-1].Degree == deg && out[n-1].Interval.Meets(piece) {
			out[n-1].Interval.End = piece.End
			continue
		}
		out = append(out, DegreePoint{Interval: piece, Degree: deg})
	}
	return out
}
