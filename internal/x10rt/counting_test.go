package x10rt

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestCountingTransportLinks(t *testing.T) {
	inner, err := NewChanTransport(ChanOptions{Places: 4})
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCountingTransport(inner)
	defer ct.Close()
	if err := ct.Register(UserHandlerBase, func(int, int, any) {}); err != nil {
		t.Fatal(err)
	}
	send := func(src, dst int, class Class) {
		if err := ct.Send(src, dst, UserHandlerBase, nil, 8, class); err != nil {
			t.Fatal(err)
		}
	}
	// Control: 1->0 x3, 2->0 x1, 3->2 x1; self-send 0->0 ignored by fan-in.
	send(1, 0, ControlClass)
	send(1, 0, ControlClass)
	send(1, 0, ControlClass)
	send(2, 0, ControlClass)
	send(3, 2, ControlClass)
	send(0, 0, ControlClass)
	// Data should not pollute control accounting.
	send(3, 0, DataClass)

	srcs, msgs := ct.FanIn(0, ControlClass)
	if srcs != 2 || msgs != 4 {
		t.Errorf("FanIn(0) = %d sources %d msgs, want 2, 4", srcs, msgs)
	}
	if got := ct.MaxInDegree(ControlClass); got != 2 {
		t.Errorf("MaxInDegree = %d, want 2", got)
	}
	if got := ct.MaxOutDegree(ControlClass); got != 1 {
		t.Errorf("MaxOutDegree = %d, want 1", got)
	}
	// Place 1 sends to two distinct destinations.
	send(1, 2, ControlClass)
	if got := ct.MaxOutDegree(ControlClass); got != 2 {
		t.Errorf("MaxOutDegree after extra send = %d, want 2", got)
	}
	ct.Reset()
	srcs, msgs = ct.FanIn(0, ControlClass)
	if srcs != 0 || msgs != 0 {
		t.Errorf("after Reset: %d/%d", srcs, msgs)
	}
	// Underlying aggregate stats still flow through.
	if ct.Stats().TotalMessages() == 0 {
		t.Error("inner stats lost")
	}
}

func TestCountingTransportPropagatesErrors(t *testing.T) {
	inner, err := NewChanTransport(ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCountingTransport(inner)
	defer ct.Close()
	if err := ct.Send(0, 9, UserHandlerBase, nil, 0, DataClass); err == nil {
		t.Error("bad send succeeded")
	}
	// Failed sends must not be counted.
	if _, msgs := ct.FanIn(9, DataClass); msgs != 0 {
		t.Error("failed send counted")
	}
}

// TestCountingUnderBatchingCountsEachMessage pins that a
// BatchingTransport over CountingTransport over TCP hands the counting
// layer one Send per message. TCP can take a whole batch in one
// SendBatch call; if the counting wrapper exposed that fast path, a
// coalesced batch would bypass its per-link counts.
func TestCountingUnderBatchingCountsEachMessage(t *testing.T) {
	const msgs = 8
	mesh := newTestMesh(t, 2)
	var delivered atomic.Int64
	if err := mesh[1].Register(UserHandlerBase, func(int, int, any) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ct := NewCountingTransport(mesh[0])
	// A long MaxDelay keeps the background flusher out: after the first
	// (idle) send, the rest queue until the explicit Flush.
	bt := NewBatchingTransport(ct, BatchOptions{MaxDelay: time.Hour, MaxFrames: 2 * msgs})
	defer bt.Close()
	if err := bt.Register(UserHandlerBase, func(int, int, any) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		if err := bt.Send(0, 1, UserHandlerBase, wirePayload{Value: i}, 8, ControlClass); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := bt.Flush(0); err != nil {
		t.Fatal(err)
	}
	if batches, carried := bt.BatchStats(); batches != 2 || carried != msgs {
		t.Fatalf("batching forwarded %d batches carrying %d messages, want 2 carrying %d", batches, carried, msgs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() != msgs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != msgs {
		t.Fatalf("delivered %d messages, want %d", got, msgs)
	}
	if srcs, got := ct.FanIn(1, ControlClass); srcs != 1 || got != msgs {
		t.Errorf("FanIn(1) = %d sources, %d messages; want 1, %d", srcs, got, msgs)
	}
}
