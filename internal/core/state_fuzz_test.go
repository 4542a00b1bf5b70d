package core

import (
	"math"
	"testing"

	ival "graphite/internal/interval"
	"graphite/internal/warp"
)

// rebuildSet is the reference repartitioning Set is checked against: copy
// every partition, splitting the ones iv overlaps around a single new
// 〈iv, value〉 partition, then fuse the whole list, keeping the left value
// of each fused pair.
func rebuildSet(parts []warp.IntervalValue, iv ival.Interval, value any) []warp.IntervalValue {
	var out []warp.IntervalValue
	inserted := false
	for _, p := range parts {
		x := p.Interval.Intersect(iv)
		if x.IsEmpty() {
			out = append(out, p)
			continue
		}
		if p.Interval.Start < x.Start {
			out = append(out, warp.IntervalValue{Interval: ival.New(p.Interval.Start, x.Start), Value: p.Value})
		}
		if !inserted {
			out = append(out, warp.IntervalValue{Interval: iv, Value: value})
			inserted = true
		}
		if x.End < p.Interval.End {
			out = append(out, warp.IntervalValue{Interval: ival.New(x.End, p.Interval.End), Value: p.Value})
		}
	}
	fused := out[:0]
	for _, p := range out {
		if n := len(fused); n > 0 && fused[n-1].Interval.Meets(p.Interval) &&
			warp.ValueEqual(fused[n-1].Value, p.Value) {
			fused[n-1].Interval.End = p.Interval.End
			continue
		}
		fused = append(fused, p)
	}
	return fused
}

// stateValues is the value domain of FuzzStateSet: int64s, and float64s
// whose == is not identity — +0 equals -0, NaN equals nothing — so the
// fuzzer checks which of two equal values survives a fuse.
var stateValues = []any{int64(0), int64(1), int64(2), 0.0, math.Copysign(0, -1), math.NaN(), 1.0}

// sameValue reports whether a and b are the same value bit for bit.
func sameValue(a, b any) bool {
	fa, oka := a.(float64)
	fb, okb := b.(float64)
	if oka || okb {
		return oka && okb && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// samePartitions reports whether two partition lists are identical,
// intervals and value bits both.
func samePartitions(a, b []warp.IntervalValue) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Interval != b[k].Interval || !sameValue(a[k].Value, b[k].Value) {
			return false
		}
	}
	return true
}

// TestStateSetFuseKeepsLeftValue drives each seam a splice can fuse — the
// left remainder, the left neighbour, the right remainder, the right
// neighbour — with +0 and -0, which are equal but not identical, and
// requires the partitions rebuildSet produces, down to which zero survives.
func TestStateSetFuseKeepsLeftValue(t *testing.T) {
	type op struct {
		iv  ival.Interval
		val any
	}
	pos, neg := 0.0, math.Copysign(0, -1)
	for name, ops := range map[string][]op{
		"left remainder":  {{ival.New(3, 6), neg}},
		"left neighbour":  {{ival.New(4, 12), 1.0}, {ival.New(4, 8), neg}},
		"right remainder": {{ival.New(0, 4), 1.0}, {ival.New(2, 6), neg}},
		"right neighbour": {{ival.New(0, 4), 1.0}, {ival.New(4, 8), 2.0}, {ival.New(4, 8), neg}},
		"both neighbours": {{ival.New(4, 8), 1.0}, {ival.New(4, 8), neg}},
	} {
		s := NewPartitionedState(ival.New(0, 12), pos)
		oracle := append([]warp.IntervalValue(nil), s.Parts()...)
		for _, o := range ops {
			if err := s.Set(o.iv, o.val); err != nil {
				t.Fatal(err)
			}
			oracle = rebuildSet(oracle, o.iv, o.val)
		}
		if !samePartitions(s.Parts(), oracle) {
			t.Errorf("%s: got %v, want %v", name, s.Parts(), oracle)
		}
	}
}

// FuzzStateSet drives PartitionedState.Set with a fuzzer-chosen lifespan and
// op sequence against two references: rebuildSet, which the splicing Set
// must match partition for partition and bit for bit, and a point-wise
// model. After every op the partition invariant must hold, fusion must be
// maximal, and out-of-range updates must fail without mutating the state.
func FuzzStateSet(f *testing.F) {
	f.Add([]byte{4, 10, 0, 0, 2, 1, 3, 4, 2, 1, 15, 3})
	f.Add([]byte{0, 200, 2, 3, 1, 9, 15, 4})
	f.Add([]byte{7, 1, 7, 0, 0})
	// +0 then -0 then +0 over overlapping ranges, and NaN beside NaN.
	f.Add([]byte{0, 20, 1, 2, 4, 3, 3, 4, 5, 3, 3, 0, 3, 3, 5, 4, 3, 5, 6, 3, 5})
	f.Add([]byte{1, 16, 1, 1, 5, 4, 3, 5, 7, 3, 5, 2, 5, 4, 9, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}

		base := ival.Time(next() % 8)
		span := ival.Time(1 + next()%24)
		life := ival.New(base, base+span)
		if next()%8 == 0 {
			life = ival.From(base)
		}
		s := NewPartitionedState(life, int64(-1))
		oracle := append([]warp.IntervalValue(nil), s.Parts()...)

		// The point-wise model: sample points cover every finite boundary the
		// ops can produce, plus a far point for unbounded lifespans.
		var samples []ival.Time
		for p := ival.Time(0); p < base+span+8; p++ {
			samples = append(samples, p)
		}
		samples = append(samples, ival.Infinity-1)
		model := map[ival.Time]any{}
		for _, p := range samples {
			if life.Contains(p) {
				model[p] = int64(-1)
			}
		}

		for op := 0; op < 12; op++ {
			start := ival.Time(next() % 40)
			var iv ival.Interval
			if b := next(); b%16 == 15 {
				iv = ival.From(start)
			} else {
				iv = ival.New(start, start+ival.Time(b%6)) // width 0 = empty
			}
			val := stateValues[int(next())%len(stateValues)]

			before := append([]warp.IntervalValue(nil), s.Parts()...)
			err := s.Set(iv, val)
			if iv.IsEmpty() || !life.ContainsInterval(iv) {
				if err == nil {
					t.Fatalf("op %d: Set(%v) inside lifespan %v must fail", op, iv, life)
				}
				if !samePartitions(before, s.Parts()) {
					t.Fatalf("op %d: failed Set(%v) mutated the state: %v -> %v", op, iv, before, s.Parts())
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: Set(%v, %v) in lifespan %v: %v", op, iv, val, life, err)
			}
			oracle = rebuildSet(oracle, iv, val)
			if !samePartitions(s.Parts(), oracle) {
				t.Fatalf("op %d: Set(%v, %v) from %v\ngot  %v\nwant %v", op, iv, val, before, s.Parts(), oracle)
			}
			for _, p := range samples {
				if iv.Contains(p) && life.Contains(p) {
					model[p] = val
				}
			}

			if err := s.Invariant(); err != nil {
				t.Fatalf("op %d: after Set(%v, %v): %v", op, iv, val, err)
			}
			parts := s.Parts()
			for k := 1; k < len(parts); k++ {
				if parts[k-1].Interval.Meets(parts[k].Interval) &&
					warp.ValueEqual(parts[k-1].Value, parts[k].Value) {
					t.Fatalf("op %d: unfused equal partitions %v and %v", op, parts[k-1], parts[k])
				}
			}
			for _, p := range samples {
				got, ok := s.Get(p)
				want, inLife := model[p]
				if ok != inLife {
					t.Fatalf("op %d: Get(%d) ok=%v, want %v (lifespan %v)", op, p, ok, inLife, life)
				}
				// A fuse may keep an equal neighbour (+0 for -0); NaN never fuses.
				if ok && !warp.ValueEqual(got, want) && !sameValue(got, want) {
					t.Fatalf("op %d: Get(%d) = %v, model %v\nparts: %v", op, p, got, want, parts)
				}
			}
		}
	})
}
