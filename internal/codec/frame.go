package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame I/O for the cluster control and data planes: every message between
// coordinator and workers travels as one frame —
//
//	u32 length | u8 type | payload | u32 crc
//
// with the big-endian length covering type byte and payload, and the CRC32
// (IEEE) covering the same bytes. The CRC turns a torn or bit-rotted frame
// into a typed error at the reader instead of a misparsed control message;
// the cluster treats a corrupt frame like a dead connection.

// MaxFrameSize bounds a frame's declared length so a corrupted or hostile
// length prefix cannot make the reader allocate unbounded memory. 1 GiB
// comfortably exceeds any shard checkpoint or message batch in the bench
// suite.
const MaxFrameSize = 1 << 30

// ErrFrameCorrupt reports a frame that failed structural or CRC
// validation. It wraps ErrCorrupt so existing errors.Is checks on the
// codec's corruption sentinel keep working.
var ErrFrameCorrupt = fmt.Errorf("%w: frame", ErrCorrupt)

// BeginFrame appends the head of a frame of type ftype to buf: a length
// placeholder and the type byte. Append the payload after it, then seal the
// frame with FinishFrame, so a frame is built in place in one reusable
// buffer.
func BeginFrame(buf []byte, ftype byte) []byte {
	return append(buf, 0, 0, 0, 0, ftype)
}

// FinishFrame seals the frame BeginFrame opened at buf[start:], whose
// payload runs to the end of buf: it fills in the length and appends the
// CRC. A payload past MaxFrameSize is an error.
func FinishFrame(buf []byte, start int) ([]byte, error) {
	n := len(buf) - start - 4 // type byte + payload
	if n > MaxFrameSize {
		return buf, fmt.Errorf("codec: frame payload %d bytes exceeds limit", n-1)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:])), nil
}

// WriteFrame writes one frame. The payload may be nil (a bare signal
// frame). The write is a single Write call so concurrent writers
// serialized by a mutex never interleave partial frames.
func WriteFrame(w io.Writer, ftype byte, payload []byte) error {
	buf := append(BeginFrame(make([]byte, 0, 4+1+len(payload)+4), ftype), payload...)
	buf, err := FinishFrame(buf, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame, verifying length and CRC. On a clean EOF at a
// frame boundary it returns io.EOF; a connection dying mid-frame is
// io.ErrUnexpectedEOF; a bad length or CRC mismatch wraps ErrFrameCorrupt.
func ReadFrame(r io.Reader) (ftype byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: bad length %d", ErrFrameCorrupt, n)
	}
	body := make([]byte, n+4) // type + payload + trailing CRC
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	want := binary.BigEndian.Uint32(body[n:])
	if got := crc32.ChecksumIEEE(body[:n]); got != want {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrFrameCorrupt, got, want)
	}
	return body[0], body[1:n:n], nil
}
