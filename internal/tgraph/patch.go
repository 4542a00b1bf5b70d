package tgraph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	ival "graphite/internal/interval"
)

// ErrNotIDOrdered reports a Patch base graph, or a Delta list, that is not
// in ascending id order.
var ErrNotIDOrdered = errors.New("tgraph: rows not in ascending id order")

// newGraph assembles a graph from tables the caller has already validated:
// unique ids, every edge's endpoints at srcIdx/dstIdx with lifespans
// containing the edge's, and properties sorted, disjoint and inside their
// owner within each label. It builds the adjacency rows, the lifespan hull
// and the horizon and nothing else: no maps, no normalizeProps, no
// constraint checks. vsorted is the id-sorted vertex permutation, or nil
// when the vertex table is already in ascending id order.
func newGraph(vertices []Vertex, edges []Edge, srcIdx, dstIdx, vsorted []int32) *Graph {
	g := &Graph{
		vertices:  vertices,
		edges:     edges,
		vsorted:   vsorted,
		out:       csrRows(srcIdx, len(vertices)),
		in:        csrRows(dstIdx, len(vertices)),
		srcIdx:    srcIdx,
		dstIdx:    dstIdx,
		idOrdered: vsorted == nil && idsAscend(vertices, vertexID) && idsAscend(edges, edgeID),
	}
	g.summarize()
	return g
}

// summarize sets the lifespan hull and the horizon from the tables.
func (g *Graph) summarize() {
	g.lifespan = ival.Empty
	for i := range g.vertices {
		g.lifespan = g.lifespan.Union(g.vertices[i].Lifespan)
	}
	g.horizon = g.computeHorizon()
}

// csrRows groups edge indices by endpoint: row v lists, in ascending order,
// the edges whose endpoint (ends[e]) is v. All rows share one array.
func csrRows(ends []int32, nv int) [][]int32 {
	pos := make([]int32, nv+1)
	for _, v := range ends {
		pos[v+1]++
	}
	for v := 0; v < nv; v++ {
		pos[v+1] += pos[v]
	}
	flat := make([]int32, len(ends))
	for e, v := range ends {
		flat[pos[v]] = int32(e)
		pos[v]++
	}
	// pos[v] now ends row v, which starts where row v-1 ended.
	rows := make([][]int32, nv)
	lo := int32(0)
	for v := range rows {
		hi := pos[v]
		rows[v] = flat[lo:hi:hi]
		lo = hi
	}
	return rows
}

func vertexID(v *Vertex) VertexID { return v.ID }
func edgeID(e *Edge) EdgeID       { return e.ID }
func deref[I any](x *I) I         { return *x }

// idsAscend reports whether rows are in strictly ascending id order.
func idsAscend[R any, I cmp.Ordered](rows []R, id func(*R) I) bool {
	for i := 1; i < len(rows); i++ {
		if id(&rows[i-1]) >= id(&rows[i]) {
			return false
		}
	}
	return true
}

// searchRow binary-searches rows in ascending id order for id.
func searchRow[R any, I cmp.Ordered](rows []R, id I, rid func(*R) I) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rid(&rows[mid]) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rows) && rid(&rows[lo]) == id {
		return lo
	}
	return -1
}

// Delta is a batch of row changes to an id-ordered graph: rows to insert
// or replace, and ids to delete (deleting an absent id is a no-op). Each
// list is in strictly ascending id order. The graph Patch returns takes
// the rows and their properties as they are; the caller must not modify
// them afterwards.
type Delta struct {
	Vertices    []Vertex
	Edges       []Edge
	DelVertices []VertexID
	DelEdges    []EdgeID
}

// Patch returns g with d applied, leaving g untouched. g must list its
// vertices and edges in ascending id order, as every graph Patch returns
// does; a nil g is the empty graph.
//
// Only the delta's rows are validated: their lifespans and properties,
// the endpoints and containment of each upserted edge, and every existing
// edge incident to a vertex whose lifespan changed or that was deleted.
// When every upserted row either replaces a row in place or has an id
// above g's largest, and nothing present is deleted, the result shares
// every untouched row, property set and adjacency row with g; its vertex
// and edge tables are copies with the changed rows overwritten and the new
// ones appended. Otherwise the tables are merged in one pass and the
// adjacency rebuilt. Either way no map is built.
func Patch(g *Graph, d Delta) (*Graph, error) {
	if g == nil {
		g = &Graph{idOrdered: true}
	}
	if err := d.check(); err != nil {
		return nil, err
	}
	if !g.idOrdered && (!idsAscend(g.vertices, vertexID) || !idsAscend(g.edges, edgeID)) {
		return nil, fmt.Errorf("%w: Patch base graph", ErrNotIDOrdered)
	}
	vpos, inPlace := placeRows(g.vertices, d.Vertices, d.DelVertices, vertexID, nil)
	epos, ok := placeRows(g.edges, d.Edges, d.DelEdges, edgeID, func(old, up *Edge) bool {
		return old.Src == up.Src && old.Dst == up.Dst
	})
	if inPlace && ok {
		return patchInPlace(g, d, vpos, epos)
	}
	return patchMerge(g, d)
}

// placeRows finds where each upsert lands in base: the index of the row it
// replaces, or -1 when its id is above base's largest (it appends). It
// reports false if any upsert would land mid-table, any deletion hits a
// present row, or same (when given) rejects a replacement.
func placeRows[R any, I cmp.Ordered](base, ups []R, dels []I, id func(*R) I, same func(old, up *R) bool) ([]int32, bool) {
	pos := make([]int32, len(ups))
	for i := range ups {
		j := searchRow(base, id(&ups[i]), id)
		switch {
		case j >= 0:
			if same != nil && !same(&base[j], &ups[i]) {
				return nil, false
			}
			pos[i] = int32(j)
		case len(base) == 0 || id(&ups[i]) > id(&base[len(base)-1]):
			pos[i] = -1
		default:
			return nil, false
		}
	}
	for _, x := range dels {
		if searchRow(base, x, id) >= 0 {
			return nil, false
		}
	}
	return pos, true
}

// check validates the delta's own rows: strictly ascending ids, no id both
// upserted and deleted, valid lifespans and well-formed properties.
func (d *Delta) check() error {
	if !idsAscend(d.Vertices, vertexID) || !idsAscend(d.Edges, edgeID) ||
		!idsAscend(d.DelVertices, deref[VertexID]) || !idsAscend(d.DelEdges, deref[EdgeID]) {
		return fmt.Errorf("%w: delta lists", ErrNotIDOrdered)
	}
	for i := range d.Vertices {
		v := &d.Vertices[i]
		if !v.Lifespan.Valid() {
			return fmt.Errorf("%w: vertex %d has %v", ErrInvalidLifespan, v.ID, v.Lifespan)
		}
		if _, del := slices.BinarySearch(d.DelVertices, v.ID); del {
			return fmt.Errorf("%w: vertex %d both upserted and deleted", ErrDuplicateVertex, v.ID)
		}
		if err := checkProps(v.Props, v.Lifespan, "vertex", int64(v.ID)); err != nil {
			return err
		}
	}
	for i := range d.Edges {
		e := &d.Edges[i]
		if !e.Lifespan.Valid() {
			return fmt.Errorf("%w: edge %d has %v", ErrInvalidLifespan, e.ID, e.Lifespan)
		}
		if _, del := slices.BinarySearch(d.DelEdges, e.ID); del {
			return fmt.Errorf("%w: edge %d both upserted and deleted", ErrDuplicateEdge, e.ID)
		}
		if err := checkProps(e.Props, e.Lifespan, "edge", int64(e.ID)); err != nil {
			return err
		}
	}
	return nil
}

// checkProps verifies what Builder.Build would otherwise establish for one
// row's properties: labels strictly ascending, and each label's entries
// non-empty, inside the owner's lifespan, sorted and pairwise disjoint.
func checkProps(p Props, life ival.Interval, kind string, id int64) error {
	for li, label := range p.labels {
		if li > 0 && p.labels[li-1] >= label {
			return fmt.Errorf("%w: %s %d labels %q, %q out of order", ErrPropConflict, kind, id, p.labels[li-1], label)
		}
		entries := p.entries[li]
		for i, e := range entries {
			if e.Interval.IsEmpty() || !life.ContainsInterval(e.Interval) {
				return fmt.Errorf("%w: %s %d prop %q %v outside %v", ErrPropOutlives, kind, id, label, e.Interval, life)
			}
			if i > 0 && entries[i-1].Interval.End > e.Interval.Start {
				return fmt.Errorf("%w: %s %d label %q: %v and %v",
					ErrPropConflict, kind, id, label, entries[i-1].Interval, e.Interval)
			}
		}
	}
	return nil
}

// checkEdge resolves an upserted edge's endpoints in an id-ordered vertex
// table and checks Constraint 2 against them.
func checkEdge(verts []Vertex, e *Edge) (src, dst int32, err error) {
	s, t := searchRow(verts, e.Src, vertexID), searchRow(verts, e.Dst, vertexID)
	if s < 0 || t < 0 {
		return 0, 0, fmt.Errorf("%w: edge %d (%d->%d)", ErrDanglingEdge, e.ID, e.Src, e.Dst)
	}
	if !verts[s].Lifespan.ContainsInterval(e.Lifespan) || !verts[t].Lifespan.ContainsInterval(e.Lifespan) {
		return 0, 0, fmt.Errorf("%w: edge %d %v, src %v, dst %v",
			ErrEdgeOutlives, e.ID, e.Lifespan, verts[s].Lifespan, verts[t].Lifespan)
	}
	return int32(s), int32(t), nil
}

// patchInPlace is Patch's sharing path: no row moves, so dense indices,
// untouched adjacency rows and untouched property sets carry over.
func patchInPlace(g *Graph, d Delta, vpos, epos []int32) (*Graph, error) {
	verts := append(make([]Vertex, 0, len(g.vertices)+countNew(vpos)), g.vertices...)
	for i := range d.Vertices {
		if j := vpos[i]; j >= 0 {
			verts[j] = d.Vertices[i]
		} else {
			verts = append(verts, d.Vertices[i])
		}
	}

	nNew := countNew(epos)
	edges := append(make([]Edge, 0, len(g.edges)+nNew), g.edges...)
	srcIdx := append(make([]int32, 0, len(edges)+nNew), g.srcIdx...)
	dstIdx := append(make([]int32, 0, len(edges)+nNew), g.dstIdx...)
	for i := range d.Edges {
		e := &d.Edges[i]
		s, t, err := checkEdge(verts, e)
		if err != nil {
			return nil, err
		}
		if j := epos[i]; j >= 0 {
			edges[j] = *e
		} else {
			edges = append(edges, *e)
			srcIdx = append(srcIdx, s)
			dstIdx = append(dstIdx, t)
		}
	}
	// Existing edges of a vertex whose lifespan changed must still fit in
	// it; upserted ones were checked above.
	for i := range d.Vertices {
		j := vpos[i]
		if j < 0 || g.vertices[j].Lifespan == d.Vertices[i].Lifespan {
			continue
		}
		for _, row := range [2][]int32{g.out[j], g.in[j]} {
			for _, ei := range row {
				e := &g.edges[ei]
				if searchRow(d.Edges, e.ID, edgeID) >= 0 {
					continue
				}
				if !verts[j].Lifespan.ContainsInterval(e.Lifespan) {
					return nil, fmt.Errorf("%w: edge %d %v, endpoint %d now %v",
						ErrEdgeOutlives, e.ID, e.Lifespan, verts[j].ID, verts[j].Lifespan)
				}
			}
		}
	}

	ng := &Graph{
		vertices:  verts,
		edges:     edges,
		srcIdx:    srcIdx,
		dstIdx:    dstIdx,
		idOrdered: true,
	}
	if g.borrowed {
		ng.out = csrRows(srcIdx, len(verts))
		ng.in = csrRows(dstIdx, len(verts))
	} else {
		ng.out = appendRows(g.out, len(verts), srcIdx, len(g.edges))
		ng.in = appendRows(g.in, len(verts), dstIdx, len(g.edges))
	}
	ng.summarize()
	return ng, nil
}

func countNew(pos []int32) int {
	n := 0
	for _, p := range pos {
		if p < 0 {
			n++
		}
	}
	return n
}

// appendRows extends adjacency rows with the edges from index `from` on,
// whose endpoints are ends[from:]. Rows that gain no edge are shared with
// the input; a row that does is copied first, so published rows are never
// written.
func appendRows(rows [][]int32, nv int, ends []int32, from int) [][]int32 {
	added := len(ends) - from
	if added*4 > len(ends) {
		return csrRows(ends, nv) // mostly new: one counting pass is cheaper
	}
	next := make([][]int32, nv)
	copy(next, rows)
	if added == 0 {
		return next
	}
	order := make([]int32, added)
	for i := range order {
		order[i] = int32(from + i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(ends[a], ends[b]) })
	for i := 0; i < len(order); {
		v := ends[order[i]]
		j := i + 1
		for j < len(order) && ends[order[j]] == v {
			j++
		}
		old := next[v]
		row := make([]int32, len(old), len(old)+j-i)
		copy(row, old)
		next[v] = append(row, order[i:j]...)
		i = j
	}
	return next
}

// patchMerge is Patch's general path: merge each table with its upserts
// and deletions in one ordered pass, remap the endpoints of carried-over
// edges, check referential integrity and containment for every edge, and
// rebuild the adjacency.
func patchMerge(g *Graph, d Delta) (*Graph, error) {
	verts, vold, _ := mergeRows(g.vertices, d.Vertices, d.DelVertices, vertexID)
	vmap := make([]int32, len(g.vertices))
	for i := range vmap {
		vmap[i] = -1
	}
	for k, o := range vold {
		if o >= 0 {
			vmap[o] = int32(k)
		}
	}
	edges, eold, eup := mergeRows(g.edges, d.Edges, d.DelEdges, edgeID)
	srcIdx := make([]int32, len(edges))
	dstIdx := make([]int32, len(edges))
	for k := range edges {
		e := &edges[k]
		if eup[k] {
			s, t, err := checkEdge(verts, e)
			if err != nil {
				return nil, err
			}
			srcIdx[k], dstIdx[k] = s, t
			continue
		}
		s, t := vmap[g.srcIdx[eold[k]]], vmap[g.dstIdx[eold[k]]]
		if s < 0 || t < 0 {
			return nil, fmt.Errorf("%w: edge %d (%d->%d)", ErrDanglingEdge, e.ID, e.Src, e.Dst)
		}
		if !verts[s].Lifespan.ContainsInterval(e.Lifespan) || !verts[t].Lifespan.ContainsInterval(e.Lifespan) {
			return nil, fmt.Errorf("%w: edge %d %v, src %v, dst %v",
				ErrEdgeOutlives, e.ID, e.Lifespan, verts[s].Lifespan, verts[t].Lifespan)
		}
		srcIdx[k], dstIdx[k] = s, t
	}
	return newGraph(verts, edges, srcIdx, dstIdx, nil), nil
}

// mergeRows merges an id-ordered table with id-ordered upserts and
// deletions. For each output row k, old[k] is the index of the base row
// with the same id (-1 if none) and up[k] reports whether the row came
// from the upserts.
func mergeRows[R any, I cmp.Ordered](base, ups []R, dels []I, id func(*R) I) (rows []R, old []int32, up []bool) {
	n := len(base) + len(ups)
	rows, old, up = make([]R, 0, n), make([]int32, 0, n), make([]bool, 0, n)
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(ups) {
		switch {
		case j == len(ups) || (i < len(base) && id(&base[i]) < id(&ups[j])):
			x := id(&base[i])
			for k < len(dels) && dels[k] < x {
				k++
			}
			if k == len(dels) || dels[k] != x {
				rows, old, up = append(rows, base[i]), append(old, int32(i)), append(up, false)
			}
			i++
		case i == len(base) || id(&ups[j]) < id(&base[i]):
			rows, old, up = append(rows, ups[j]), append(old, -1), append(up, true)
			j++
		default: // same id: the upsert replaces the base row
			rows, old, up = append(rows, ups[j]), append(old, int32(i)), append(up, true)
			i++
			j++
		}
	}
	return rows, old, up
}
