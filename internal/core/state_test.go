package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	ival "graphite/internal/interval"
)

func TestPartitionedStateBasics(t *testing.T) {
	s := NewPartitionedState(ival.New(0, 10), int64(0))
	if s.NumParts() != 1 || s.Lifespan() != ival.New(0, 10) {
		t.Fatalf("initial state wrong: %+v", s.Parts())
	}
	if v, ok := s.Get(5); !ok || v.(int64) != 0 {
		t.Fatalf("Get(5) = %v,%v", v, ok)
	}
	if _, ok := s.Get(10); ok {
		t.Fatalf("Get outside lifespan must fail")
	}
	if err := s.Set(ival.New(3, 6), int64(7)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if s.NumParts() != 3 {
		t.Fatalf("want 3 partitions after split, got %v", s.Parts())
	}
	if err := s.Invariant(); err != nil {
		t.Fatalf("invariant: %v", err)
	}
	// Re-setting the same value everywhere must fuse back to one partition.
	if err := s.Set(ival.New(0, 10), int64(7)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if s.NumParts() != 1 {
		t.Fatalf("fuse failed: %v", s.Parts())
	}
}

func TestPartitionedStateFusesEqualNeighbors(t *testing.T) {
	s := NewPartitionedState(ival.New(0, 10), int64(1))
	s.Set(ival.New(0, 5), int64(2))
	s.Set(ival.New(5, 10), int64(2))
	if s.NumParts() != 1 {
		t.Fatalf("adjacent equal values must fuse: %v", s.Parts())
	}
}

func TestPartitionedStateRejectsOutOfRange(t *testing.T) {
	s := NewPartitionedState(ival.New(2, 8), int64(0))
	for _, iv := range []ival.Interval{ival.New(0, 3), ival.New(7, 9), ival.Empty, ival.From(2)} {
		if err := s.Set(iv, int64(1)); !errors.Is(err, ErrStateOutOfRange) {
			t.Errorf("Set(%v) should fail with ErrStateOutOfRange, got %v", iv, err)
		}
	}
	if err := s.Invariant(); err != nil {
		t.Fatalf("failed sets must not corrupt the state: %v", err)
	}
}

// TestPartitionedStateOracle fuzzes Set/Get against a per-point array.
func TestPartitionedStateOracle(t *testing.T) {
	const span = 32
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewPartitionedState(ival.New(0, span), int64(-1))
		oracle := make([]int64, span)
		for i := range oracle {
			oracle[i] = -1
		}
		for op := 0; op < 25; op++ {
			a := ival.Time(r.Intn(span))
			b := a + ival.Time(r.Intn(span-int(a))) + 1
			v := int64(r.Intn(4))
			if err := s.Set(ival.New(a, b), v); err != nil {
				return false
			}
			for i := a; i < b; i++ {
				oracle[i] = v
			}
			if err := s.Invariant(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		for i := ival.Time(0); i < span; i++ {
			got, ok := s.Get(i)
			if !ok || got.(int64) != oracle[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPartitionedStateUnbounded exercises ∞-ended lifespans.
func TestPartitionedStateUnbounded(t *testing.T) {
	s := NewPartitionedState(ival.Universe, int64(0))
	if err := s.Set(ival.From(100), int64(9)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, _ := s.Get(ival.Infinity - 1); v.(int64) != 9 {
		t.Fatalf("tail value wrong: %v", v)
	}
	if v, _ := s.Get(99); v.(int64) != 0 {
		t.Fatalf("head value wrong: %v", v)
	}
	if err := s.Invariant(); err != nil {
		t.Fatalf("invariant: %v", err)
	}
}

// TestCompactStatesKeepsPartitionsIndependent checks that compacting run
// states into one slab preserves every partition, and that a later Set on
// one compacted state grows out of its window instead of overwriting the
// neighbour packed after it.
func TestCompactStatesKeepsPartitionsIndependent(t *testing.T) {
	a := NewPartitionedState(ival.New(0, 10), int64(0))
	a.Set(ival.New(3, 6), int64(1))
	b := NewPartitionedState(ival.New(0, 4), int64(2))
	states := []*PartitionedState{a, nil, b}
	compactStates(states)
	if states[1] != nil {
		t.Fatal("a nil state must stay nil")
	}
	if got := a.Parts(); len(got) != 3 || got[1].Value != int64(1) {
		t.Fatalf("compacted a = %v", got)
	}
	if err := a.Set(ival.New(1, 2), int64(9)); err != nil {
		t.Fatal(err)
	}
	if err := a.Set(ival.New(7, 8), int64(9)); err != nil {
		t.Fatal(err)
	}
	if got := b.Parts(); len(got) != 1 || got[0].Interval != ival.New(0, 4) || got[0].Value != int64(2) {
		t.Fatalf("Set on a changed its neighbour b: %v", got)
	}
	if err := a.Invariant(); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Get(7); v != int64(9) {
		t.Fatalf("a at 7 = %v, want 9", v)
	}
}

// BenchmarkStateSet measures one PageRank-shaped superstep of one vertex:
// a state of P partitions rewritten point by point in time order, each
// update a new value, so the partition count stays P.
func BenchmarkStateSet(b *testing.B) {
	for _, p := range []int{24, 256} {
		b.Run(fmt.Sprintf("parts=%d", p), func(b *testing.B) {
			var vals [2][]any
			for k := range vals {
				for t := 0; t < p; t++ {
					vals[k] = append(vals[k], float64(k*p+t))
				}
			}
			s := NewPartitionedState(ival.New(0, ival.Time(p)), 0.0)
			for t := 0; t < p; t++ {
				s.Set(ival.Point(ival.Time(t)), vals[1][t])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := vals[i%2]
				for t := 0; t < p; t++ {
					s.Set(ival.Point(ival.Time(t)), v[t])
				}
			}
		})
	}
}
