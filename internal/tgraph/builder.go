package tgraph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	ival "graphite/internal/interval"
)

// Validation errors returned by Builder.Build, wrapping the paper's
// soundness constraints.
var (
	ErrDuplicateVertex  = errors.New("tgraph: duplicate vertex id (Constraint 1)")
	ErrDuplicateEdge    = errors.New("tgraph: duplicate edge id (Constraint 1)")
	ErrDanglingEdge     = errors.New("tgraph: edge endpoint does not exist (Constraint 2)")
	ErrEdgeOutlives     = errors.New("tgraph: edge lifespan not contained in endpoint lifespans (Constraint 2)")
	ErrPropOutlives     = errors.New("tgraph: property interval not contained in owner lifespan (Constraint 3)")
	ErrPropConflict     = errors.New("tgraph: overlapping values for one property label (Definition 1)")
	ErrInvalidLifespan  = errors.New("tgraph: invalid lifespan")
	ErrUnknownPropOwner = errors.New("tgraph: property for unknown vertex or edge")
)

// Builder accumulates vertices, edges and properties and validates the
// temporal graph constraints in Build. The zero value is not usable; call
// NewBuilder.
type Builder struct {
	vertices []Vertex
	edges    []Edge
	vseen    map[VertexID]int32
	eseen    map[EdgeID]int32
	err      error
}

// NewBuilder returns an empty Builder with capacity hints.
func NewBuilder(vcap, ecap int) *Builder {
	return &Builder{
		vertices: make([]Vertex, 0, vcap),
		edges:    make([]Edge, 0, ecap),
		vseen:    make(map[VertexID]int32, vcap),
		eseen:    make(map[EdgeID]int32, ecap),
	}
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// AddVertex adds vertex 〈id, lifespan〉. The first error encountered is
// retained and returned by Build.
func (b *Builder) AddVertex(id VertexID, lifespan ival.Interval) *Builder {
	if !lifespan.Valid() {
		b.fail(fmt.Errorf("%w: vertex %d has %v", ErrInvalidLifespan, id, lifespan))
		return b
	}
	if _, dup := b.vseen[id]; dup {
		b.fail(fmt.Errorf("%w: vertex %d", ErrDuplicateVertex, id))
		return b
	}
	b.vseen[id] = int32(len(b.vertices))
	b.vertices = append(b.vertices, Vertex{ID: id, Lifespan: lifespan})
	return b
}

// AddEdge adds edge 〈id, src, dst, lifespan〉. Endpoints must already exist.
func (b *Builder) AddEdge(id EdgeID, src, dst VertexID, lifespan ival.Interval) *Builder {
	if !lifespan.Valid() {
		b.fail(fmt.Errorf("%w: edge %d has %v", ErrInvalidLifespan, id, lifespan))
		return b
	}
	if _, dup := b.eseen[id]; dup {
		b.fail(fmt.Errorf("%w: edge %d", ErrDuplicateEdge, id))
		return b
	}
	si, sok := b.vseen[src]
	di, dok := b.vseen[dst]
	if !sok || !dok {
		b.fail(fmt.Errorf("%w: edge %d (%d->%d)", ErrDanglingEdge, id, src, dst))
		return b
	}
	if !b.vertices[si].Lifespan.ContainsInterval(lifespan) || !b.vertices[di].Lifespan.ContainsInterval(lifespan) {
		b.fail(fmt.Errorf("%w: edge %d %v, src %v, dst %v",
			ErrEdgeOutlives, id, lifespan, b.vertices[si].Lifespan, b.vertices[di].Lifespan))
		return b
	}
	b.eseen[id] = int32(len(b.edges))
	b.edges = append(b.edges, Edge{ID: id, Src: src, Dst: dst, Lifespan: lifespan})
	return b
}

// SetVertexProp attaches 〈vid, label, value, interval〉 to a vertex.
func (b *Builder) SetVertexProp(id VertexID, label string, interval ival.Interval, value int64) *Builder {
	vi, ok := b.vseen[id]
	if !ok {
		b.fail(fmt.Errorf("%w: vertex %d", ErrUnknownPropOwner, id))
		return b
	}
	v := &b.vertices[vi]
	if !v.Lifespan.ContainsInterval(interval) || interval.IsEmpty() {
		b.fail(fmt.Errorf("%w: vertex %d prop %q %v outside %v", ErrPropOutlives, id, label, interval, v.Lifespan))
		return b
	}
	v.Props.Add(label, PropEntry{Interval: interval, Value: value})
	return b
}

// SetEdgeProp attaches 〈eid, label, value, interval〉 to an edge.
func (b *Builder) SetEdgeProp(id EdgeID, label string, interval ival.Interval, value int64) *Builder {
	ei, ok := b.eseen[id]
	if !ok {
		b.fail(fmt.Errorf("%w: edge %d", ErrUnknownPropOwner, id))
		return b
	}
	e := &b.edges[ei]
	if !e.Lifespan.ContainsInterval(interval) || interval.IsEmpty() {
		b.fail(fmt.Errorf("%w: edge %d prop %q %v outside %v", ErrPropOutlives, id, label, interval, e.Lifespan))
		return b
	}
	e.Props.Add(label, PropEntry{Interval: interval, Value: value})
	return b
}

// Err returns the first error recorded so far, without building.
func (b *Builder) Err() error { return b.err }

// Build validates all constraints and returns the immutable graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.vertices {
		v := &b.vertices[i]
		if err := normalizeProps(v.Props, "vertex", int64(v.ID)); err != nil {
			return nil, err
		}
	}
	srcIdx := make([]int32, len(b.edges))
	dstIdx := make([]int32, len(b.edges))
	for i := range b.edges {
		e := &b.edges[i]
		if err := normalizeProps(e.Props, "edge", int64(e.ID)); err != nil {
			return nil, err
		}
		srcIdx[i] = b.vseen[e.Src]
		dstIdx[i] = b.vseen[e.Dst]
	}
	g := newGraph(b.vertices, b.edges, srcIdx, dstIdx, nil)
	g.vindex = b.vseen
	return g, nil
}

// MustBuild is Build that panics on error; for tests and examples.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// normalizeProps sorts each label's entries by start and rejects entries with
// intersecting intervals and different values (Definition 1). Entries with
// intersecting intervals and the same value are rejected too: they indicate a
// malformed input. The owner (kind and id) is only formatted into an error.
func normalizeProps(p Props, kind string, id int64) error {
	for label, entries := range p.All() {
		slices.SortFunc(entries, func(a, b PropEntry) int { return cmp.Compare(a.Interval.Start, b.Interval.Start) })
		for i := 1; i < len(entries); i++ {
			if entries[i-1].Interval.Intersects(entries[i].Interval) {
				return fmt.Errorf("%w: %s %d label %q: %v and %v",
					ErrPropConflict, kind, id, label, entries[i-1].Interval, entries[i].Interval)
			}
		}
	}
	return nil
}
