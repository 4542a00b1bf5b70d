package codec

import (
	"bytes"
	"testing"

	ival "graphite/internal/interval"
)

// FuzzIntervalDecode asserts the interval decoder never panics and that
// anything it accepts re-encodes to the same bytes.
func FuzzIntervalDecode(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x03})
	f.Add([]byte{0x01, 0x07})
	f.Add([]byte{0x02, 0xFF, 0x01})
	f.Add([]byte{0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		iv, n, err := Interval(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if re := AppendInterval(nil, iv); !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted %x as %v, re-encodes to %x", data[:n], iv, re)
		}
	})
}

// FuzzInt64SliceDecode asserts the slice decoder never panics or
// over-allocates on hostile length prefixes.
func FuzzInt64SliceDecode(f *testing.F) {
	c := Int64Slice{}
	f.Add(c.Append(nil, []int64{1, -2, 1 << 40}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := c.Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		s := v.([]int64)
		buf := c.Append(nil, s)
		got, _, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		g := got.([]int64)
		if len(g) != len(s) {
			t.Fatalf("length mismatch")
		}
		for i := range s {
			if g[i] != s[i] {
				t.Fatalf("element %d mismatch", i)
			}
		}
	})
}

// FuzzIntervalAppendDecode drives the encoder with arbitrary endpoints.
func FuzzIntervalAppendDecode(f *testing.F) {
	f.Add(int64(0), int64(5))
	f.Add(int64(3), ival.Infinity)
	f.Add(int64(7), int64(8))
	f.Fuzz(func(t *testing.T, s, e int64) {
		if s < 0 {
			s = -s
		}
		if e < 0 {
			e = -e
		}
		iv := ival.New(s, e)
		buf := AppendInterval(nil, iv)
		got, n, err := Interval(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode of encoded %v failed: %v", iv, err)
		}
		if iv.IsEmpty() {
			if !got.IsEmpty() {
				t.Fatalf("empty interval decoded as %v", got)
			}
			return
		}
		if got != iv {
			t.Fatalf("round trip %v -> %v", iv, got)
		}
	})
}
