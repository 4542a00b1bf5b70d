package codec

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		ft, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if ft != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: type %d payload %d bytes", i, ft, len(got))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("drained reader err = %v, want io.EOF", err)
	}
}

func TestFrameCorruptCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 7, []byte("control message")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] ^= 0x01 // flip a payload bit; the trailing CRC no longer matches
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrFrameCorrupt) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrFrameCorrupt wrapping ErrCorrupt", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, []byte("about to be cut")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-3]))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame truncation err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestFrameBadLength(t *testing.T) {
	// A zero length cannot hold even the type byte.
	raw := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("zero-length err = %v, want ErrFrameCorrupt", err)
	}
	// A length past MaxFrameSize must be rejected before any allocation.
	raw = []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized-length err = %v, want ErrFrameCorrupt", err)
	}
}

// TestFrameBuilderInPlace builds frames with BeginFrame/FinishFrame behind
// unrelated bytes in one reused buffer and requires each to read back like
// a WriteFrame frame.
func TestFrameBuilderInPlace(t *testing.T) {
	buf := []byte("prefix")
	for i, p := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
		start := len(buf)
		buf = append(BeginFrame(buf, byte(i+1)), p...)
		var err error
		if buf, err = FinishFrame(buf, start); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := WriteFrame(&want, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[start:], want.Bytes()) {
			t.Fatalf("frame %d: built %x, WriteFrame wrote %x", i, buf[start:], want.Bytes())
		}
		ft, got, err := ReadFrame(bytes.NewReader(buf[start:]))
		if err != nil || ft != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: read back type %d, %d bytes, err %v", i, ft, len(got), err)
		}
		buf = buf[:start]
	}
}

// BenchmarkFrameRoundTrip builds a 64 KiB data frame in place in a reused
// buffer, as the cluster's ship path does, and reads it back with ReadFrame.
func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 64<<10)
	var buf []byte
	var r bytes.Reader
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = FinishFrame(append(BeginFrame(buf[:0], 7), payload...), 0); err != nil {
			b.Fatal(err)
		}
		r.Reset(buf)
		if _, _, err := ReadFrame(&r); err != nil {
			b.Fatal(err)
		}
	}
}
