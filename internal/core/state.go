// Package core implements the interval-centric computing model (ICM) of
// Sec. IV of the paper: the data-parallel unit is an interval vertex whose
// dynamic state is a temporal partition of its lifespan. User logic is a
// compute function, invoked once per time-warp tuple (an aligned interval,
// the prior state, and the grouped messages), and a scatter function,
// invoked once per overlapping (updated state × out-edge property)
// sub-interval. The time-warp operator (internal/warp) performs the temporal
// alignment and grouping, minimizing user-logic calls and messages.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	ival "graphite/internal/interval"
	"graphite/internal/warp"
)

// ErrStateOutOfRange is returned when compute updates state outside the
// interval it was invoked for.
var ErrStateOutOfRange = errors.New("core: state update outside the active interval")

// PartitionedState is the dynamic state of an interval vertex: a list of
// 〈interval, value〉 pairs that are sorted, non-overlapping, mutually
// adjacent, and exactly cover the vertex lifespan (Sec. IV-A1). Updating a
// sub-interval dynamically repartitions the state; adjacent partitions with
// equal values are re-fused, which is the valid replication-inverse the
// paper notes ({〈[ts,te),s〉} ≡ {〈[ts,t'),s〉,〈[t',te),s〉}).
type PartitionedState struct {
	lifespan ival.Interval
	parts    []warp.IntervalValue
}

// NewPartitionedState returns a state covering lifespan with a single
// initial partition.
func NewPartitionedState(lifespan ival.Interval, init any) *PartitionedState {
	return &PartitionedState{
		lifespan: lifespan,
		parts:    []warp.IntervalValue{{Interval: lifespan, Value: init}},
	}
}

// Lifespan returns the covered interval.
func (s *PartitionedState) Lifespan() ival.Interval { return s.lifespan }

// Parts returns the current partitions in time order. The slice is owned by
// the state and must not be modified; it is valid only until the next Set,
// which splices the backing array in place.
func (s *PartitionedState) Parts() []warp.IntervalValue { return s.parts }

// NumParts returns the number of partitions.
func (s *PartitionedState) NumParts() int { return len(s.parts) }

// Get returns the value at time-point t; ok is false outside the lifespan.
func (s *PartitionedState) Get(t ival.Time) (any, bool) {
	for _, p := range s.parts {
		if p.Interval.Contains(t) {
			return p.Value, true
		}
	}
	return nil, false
}

// Set updates the state for iv to value, splitting and re-fusing partitions
// as needed. iv must lie within the lifespan.
//
// The update is a splice: a binary search finds the run of partitions iv
// overlaps, and that run is replaced in place by at most three pieces — the
// left remainder, the new value, the right remainder. The partitions were
// maximally fused before the update, so only the two seams the new value
// creates can fuse; each keeps its left partition's value, which decides
// which of two equal values (+0 and -0, say) survives. A Set therefore costs
// O(log P) comparisons, a walk over the run, and one shift of the
// partitions after it.
func (s *PartitionedState) Set(iv ival.Interval, value any) error {
	if iv.IsEmpty() {
		return fmt.Errorf("%w: empty interval", ErrStateOutOfRange)
	}
	if !s.lifespan.ContainsInterval(iv) {
		return fmt.Errorf("%w: %v outside lifespan %v", ErrStateOutOfRange, iv, s.lifespan)
	}
	parts := s.parts
	// parts[i:j] is the run iv overlaps: from the first partition ending
	// after iv starts to the last starting before iv ends.
	i := sort.Search(len(parts), func(k int) bool { return parts[k].Interval.End > iv.Start })
	j := i + 1
	for j < len(parts) && parts[j].Interval.Start < iv.End {
		j++
	}

	// Build the replacement for parts[lo:hi], widening the range over a
	// neighbour the new value fuses with.
	lo, hi := i, j
	first, last := parts[i], parts[j-1]
	var buf [3]warp.IntervalValue
	repl := buf[:0]
	mid := warp.IntervalValue{Interval: iv, Value: value}
	switch {
	case first.Interval.Start < iv.Start:
		if warp.ValueEqual(first.Value, value) {
			mid = warp.IntervalValue{Interval: ival.New(first.Interval.Start, iv.End), Value: first.Value}
		} else {
			repl = append(repl, warp.IntervalValue{Interval: ival.New(first.Interval.Start, iv.Start), Value: first.Value})
		}
	case i > 0 && warp.ValueEqual(parts[i-1].Value, value):
		lo = i - 1
		mid = warp.IntervalValue{Interval: ival.New(parts[lo].Interval.Start, iv.End), Value: parts[lo].Value}
	}
	switch {
	case iv.End < last.Interval.End:
		if warp.ValueEqual(mid.Value, last.Value) {
			mid.Interval.End = last.Interval.End
			repl = append(repl, mid)
		} else {
			repl = append(repl, mid, warp.IntervalValue{Interval: ival.New(iv.End, last.Interval.End), Value: last.Value})
		}
	case j < len(parts) && warp.ValueEqual(mid.Value, parts[j].Value):
		mid.Interval.End = parts[j].Interval.End
		hi = j + 1
		repl = append(repl, mid)
	default:
		repl = append(repl, mid)
	}
	s.parts = slices.Replace(parts, lo, hi, repl...)
	return nil
}

// Clone returns a copy of the partition structure for checkpointing. The
// partition values themselves are shared: the ICM contract replaces state
// values via Set and never mutates them in place, so sharing is safe and
// keeps snapshots cheap.
func (s *PartitionedState) Clone() *PartitionedState {
	return &PartitionedState{
		lifespan: s.lifespan,
		parts:    append([]warp.IntervalValue(nil), s.parts...),
	}
}

// compactStates copies the final partitions of every state into one exactly
// sized slab, so a Result, which may sit in a cache, retains one entry per
// partition instead of the run's grow-only working arrays. Each state's
// window is capped at its own length, so a later Set reallocates rather than
// writing into a neighbour's partitions.
func compactStates(states []*PartitionedState) {
	n := 0
	for _, st := range states {
		if st != nil {
			n += len(st.parts)
		}
	}
	slab := make([]warp.IntervalValue, n)
	for _, st := range states {
		if st == nil {
			continue
		}
		k := copy(slab, st.parts)
		st.parts = slab[:k:k]
		slab = slab[k:]
	}
}

// Invariant verifies the partitioned-state contract: sorted, adjacent,
// non-overlapping partitions exactly covering the lifespan. It is used by
// tests and by the runtime's paranoid mode.
func (s *PartitionedState) Invariant() error {
	if len(s.parts) == 0 {
		return errors.New("core: state has no partitions")
	}
	if s.parts[0].Interval.Start != s.lifespan.Start {
		return fmt.Errorf("core: first partition starts at %d, lifespan at %d",
			s.parts[0].Interval.Start, s.lifespan.Start)
	}
	if s.parts[len(s.parts)-1].Interval.End != s.lifespan.End {
		return fmt.Errorf("core: last partition ends at %d, lifespan at %d",
			s.parts[len(s.parts)-1].Interval.End, s.lifespan.End)
	}
	for i, p := range s.parts {
		if p.Interval.IsEmpty() {
			return fmt.Errorf("core: empty partition %d", i)
		}
		if i > 0 && !s.parts[i-1].Interval.Meets(p.Interval) {
			return fmt.Errorf("core: partitions %d and %d not adjacent: %v, %v",
				i-1, i, s.parts[i-1].Interval, p.Interval)
		}
	}
	return nil
}
