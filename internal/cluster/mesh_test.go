package cluster

// White-box mesh tests: the peer data plane must deliver framed batches,
// survive a peer endpoint dying (send errors instead of wedging, so the
// caller can fall back to the relay), and resume in order after the
// epoch-style re-dial that recovery performs.

import (
	"bytes"
	"context"
	"log/slog"
	"net"
	"testing"
	"time"

	"graphite/internal/codec"
)

func newTestMesh(t *testing.T, self int) *mesh {
	t.Helper()
	m, err := newMesh("127.0.0.1:0", slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	m.self = self
	t.Cleanup(m.close)
	return m
}

func recvPayload(t *testing.T, m *mesh) []byte {
	t.Helper()
	select {
	case p := <-m.in:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("mesh delivery timed out")
		return nil
	}
}

func TestMeshSendAndReconnect(t *testing.T) {
	ctx := context.Background()
	a, b := newTestMesh(t, 0), newTestMesh(t, 1)
	addrs := []string{a.addr(), b.addr()}
	backoff := 5 * time.Millisecond
	if err := a.dialPeers(ctx, 0, addrs, 3, backoff); err != nil {
		t.Fatal(err)
	}
	if err := b.dialPeers(ctx, 0, addrs, 3, backoff); err != nil {
		t.Fatal(err)
	}

	// Both directions deliver, in send order.
	for i, payload := range [][]byte{[]byte("batch-1"), []byte("batch-2")} {
		if err := a.send(1, dataFrame(payload)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := recvPayload(t, b); !bytes.Equal(got, []byte("batch-1")) {
		t.Fatalf("first delivery = %q", got)
	}
	if got := recvPayload(t, b); !bytes.Equal(got, []byte("batch-2")) {
		t.Fatalf("second delivery = %q", got)
	}
	if err := b.send(0, dataFrame([]byte("reply"))); err != nil {
		t.Fatal(err)
	}
	if got := recvPayload(t, a); !bytes.Equal(got, []byte("reply")) {
		t.Fatalf("reply delivery = %q", got)
	}

	// Self and out-of-range destinations are refused, not wedged.
	if err := a.send(0, dataFrame([]byte("self"))); err == nil {
		t.Error("send to self accepted")
	}
	if err := a.send(9, dataFrame([]byte("beyond"))); err == nil {
		t.Error("send beyond the fleet accepted")
	}

	// Peer death: b's endpoint closes (a kill -9 from the mesh's view).
	// a's sends must start failing — that error is what triggers the
	// caller's per-batch relay fallback — rather than block.
	b.close()
	var sendErr error
	for i := 0; i < 50 && sendErr == nil; i++ {
		sendErr = a.send(1, dataFrame([]byte("into the void")))
		time.Sleep(2 * time.Millisecond) // kernel may buffer the first writes
	}
	if sendErr == nil {
		t.Fatal("sends to a dead peer kept succeeding")
	}

	// Recovery: the replacement advertises a fresh listener and everyone
	// re-dials with the bumped epoch. Delivery resumes in order.
	b2 := newTestMesh(t, 1)
	addrs[1] = b2.addr()
	if err := a.dialPeers(ctx, 1, addrs, 3, backoff); err != nil {
		t.Fatal(err)
	}
	if err := b2.dialPeers(ctx, 1, addrs, 3, backoff); err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{[]byte("epoch1-a"), []byte("epoch1-b")} {
		if err := a.send(1, dataFrame(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvPayload(t, b2); !bytes.Equal(got, []byte("epoch1-a")) {
		t.Fatalf("post-recovery first delivery = %q", got)
	}
	if got := recvPayload(t, b2); !bytes.Equal(got, []byte("epoch1-b")) {
		t.Fatalf("post-recovery second delivery = %q", got)
	}
}

// TestMeshDialFailure pins the degrade trigger: dialing an address nobody
// serves must exhaust its retries and return an error (which the worker
// reports as fMeshed !OK), not hang.
func TestMeshDialFailure(t *testing.T) {
	a := newTestMesh(t, 0)
	// A listener that is closed immediately: the port is valid but dead.
	dead := newTestMesh(t, 1)
	addr := dead.addr()
	dead.close()
	done := make(chan error, 1)
	go func() {
		done <- a.dialPeers(context.Background(), 0, []string{a.addr(), addr}, 2, time.Millisecond)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dialing a dead endpoint succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dialPeers hung on a dead endpoint")
	}
}

// TestMeshRejectsGarbageConnection proves a connection that skips the
// fMeshHello handshake is dropped without poisoning the inbound channel.
func TestMeshRejectsGarbageConnection(t *testing.T) {
	m := newTestMesh(t, 0)
	peer := newTestMesh(t, 1)
	addrs := []string{m.addr(), peer.addr()}
	// A well-behaved peer first, so there is a live delivery to contrast.
	if err := peer.dialPeers(context.Background(), 0, addrs, 3, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Now a liar: raw bytes instead of a framed hello.
	c, err := net.Dial("tcp", m.addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Write([]byte("NOT A FRAME"))
	c.Close()
	// The honest peer's traffic still flows.
	if err := peer.send(0, dataFrame([]byte("still alive"))); err != nil {
		t.Fatal(err)
	}
	if got := recvPayload(t, m); !bytes.Equal(got, []byte("still alive")) {
		t.Fatalf("delivery after garbage connection = %q", got)
	}
}

// dataFrame seals payload as the fData frame mesh.send writes.
func dataFrame(payload []byte) []byte {
	frame, err := codec.FinishFrame(append(codec.BeginFrame(nil, fData), payload...), 0)
	if err != nil {
		panic(err)
	}
	return frame
}
