package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// nopProgram is the smallest Program a Shard accepts.
type nopProgram struct{}

func (nopProgram) Init(*Context)                                    {}
func (nopProgram) Run(*Context, []Message)                          {}
func (nopProgram) Snapshot() any                                    { return nil }
func (nopProgram) Restore(any)                                      {}
func (nopProgram) AppendSnapshot(buf []byte, _ any) ([]byte, error) { return buf, nil }
func (nopProgram) DecodeSnapshot([]byte) (any, error)               { return nil, nil }

// oneMessageBatch hand-encodes a batch of one Int64 message to vertex dst,
// which encodeBatch cannot express past int32.
func oneMessageBatch(dst uint64) []byte {
	b := binary.AppendUvarint(nil, 1)
	b = binary.AppendUvarint(b, dst)
	b = codec.AppendInterval(b, ival.Point(1))
	return codec.Int64{}.Append(b, int64(7))
}

// TestDeliverRejectsOutOfRangeDestination feeds a shard over 4 vertices
// peer batches addressed past the graph: index 4, and indices an int32
// narrowing would wrap onto vertices 0 and 1. Each must fail with a typed
// error and deliver nothing, while an in-range batch is delivered.
func TestDeliverRejectsOutOfRangeDestination(t *testing.T) {
	for _, dst := range []uint64{4, 1 << 40, 1<<32 + 1} {
		sh, err := NewShard(4, nopProgram{}, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sh.Deliver([][]byte{oneMessageBatch(dst)})
		if !errors.Is(err, ErrBatchCorrupt) || n != 0 {
			t.Errorf("dst %d: delivered %d, err %v; want 0 and ErrBatchCorrupt", dst, n, err)
		}
	}
	sh, err := NewShard(4, nopProgram{}, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sh.Deliver([][]byte{oneMessageBatch(uint64(sh.Owned()[0]))}); err != nil || n != 1 {
		t.Fatalf("in-range batch: delivered %d, err %v", n, err)
	}
}

// batchCodecs are the payload codecs FuzzDecodeBatch decodes each input
// with.
var batchCodecs = []codec.Payload{codec.Int64{}, codec.Float64{}, codec.PairCodec{}, codec.Int64Slice{}}

// FuzzDecodeBatch asserts the batch decoder, the first parser a peer's
// bytes reach, never panics, never yields a destination outside the graph,
// and accepts only the canonical encoding: every accepted batch re-encodes
// to the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	const numVertices = 64
	msgs := []Message{
		{Dst: 3, When: ival.New(2, 9), Value: int64(-7)},
		{Dst: 0, When: ival.From(5), Value: int64(1 << 40)},
		{Dst: 63, When: ival.Point(0), Value: int64(0)},
	}
	f.Add(encodeBatch(nil, msgs, codec.Int64{}))
	f.Add(encodeBatch(nil, []Message{{Dst: 1, When: ival.New(4, 6), Value: 0.25}}, codec.Float64{}))
	f.Add(encodeBatch(nil, []Message{{Dst: 2, When: ival.Point(3), Value: []int64{1, -2}}}, codec.Int64Slice{}))
	f.Add(encodeBatch(nil, nil, codec.Int64{}))
	f.Add(oneMessageBatch(1 << 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pc := range batchCodecs {
			got, err := decodeBatch(data, numVertices, pc)
			if err != nil {
				continue
			}
			for _, m := range got {
				if m.Dst < 0 || m.Dst >= numVertices {
					t.Fatalf("%T: accepted destination %d of %d vertices", pc, m.Dst, numVertices)
				}
			}
			if re := encodeBatch(nil, got, pc); !bytes.Equal(re, data) {
				t.Fatalf("%T: accepted %x, re-encodes to %x", pc, data, re)
			}
		}
	})
}

// BenchmarkBatchEncodeDecode measures one PageRank-shaped peer batch — 4096
// bounded-interval float64 messages — through encodeBatch and back through
// decodeBatchInto, reusing both buffers as the cluster's ship and receive
// paths do.
func BenchmarkBatchEncodeDecode(b *testing.B) {
	const numVertices = 1 << 16
	msgs := make([]Message, 4096)
	for i := range msgs {
		s := ival.Time(i % 24)
		msgs[i] = Message{Dst: int32(i * 13 % numVertices), When: ival.New(s, s+1+ival.Time(i%5)), Value: float64(i) / 7}
	}
	var buf []byte
	var out []Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = encodeBatch(buf[:0], msgs, codec.Float64{})
		var err error
		if out, err = decodeBatchInto(out[:0], buf, numVertices, codec.Float64{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}
