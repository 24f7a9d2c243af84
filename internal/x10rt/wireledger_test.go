package x10rt

import (
	"sync"
	"testing"
	"time"

	"apgas/internal/obs"
)

// waitCount polls until fn() == want or the deadline passes.
func waitCount(t *testing.T, want int, fn func() int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fn() != want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d messages, want %d", fn(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireLedgerNilSafe pins the overhead contract: every record method
// and Snapshot must be callable on a nil ledger (the disabled state).
func TestWireLedgerNilSafe(t *testing.T) {
	var lg *WireLedger
	lg.RecordSend(0, 1, UserHandlerBase, 10)
	lg.RecordEncode(0, UserHandlerBase, 5)
	lg.RecordRecv(1, UserHandlerBase, 5)
	lg.RecordBatchBody(0, 1, 10, 8)
	lg.RecordQueueWait(0, 1, 100)
	if s := lg.Snapshot(); len(s.Handlers) != 0 || len(s.Links) != 0 {
		t.Fatalf("nil ledger snapshot = %+v", s)
	}
	if lg.NumPlaces() != 0 {
		t.Fatal("nil ledger NumPlaces != 0")
	}
}

// TestWireLedgerChanSumEquality checks the core sum-equality invariant
// on the in-process transport: Σ per-handler payload bytes equals the
// transport's TotalBytes and Σ per-link wire bytes equals WireBytes —
// and telemetry traffic is invisible to both.
func TestWireLedgerChanSumEquality(t *testing.T) {
	const places = 4
	tr, err := NewChanTransport(ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	o := obs.New()
	lg := NewWireLedger(places, o.Place)
	tr.AttachWireLedger(lg)

	tr.Register(UserHandlerBase, func(src, dst int, payload any) {})
	tr.Register(UserHandlerBase+1, func(src, dst int, payload any) {})
	tr.Register(HandlerTelemetry, func(src, dst int, payload any) {})

	for src := 0; src < places; src++ {
		for dst := 0; dst < places; dst++ {
			for k := 0; k <= src; k++ {
				id := UserHandlerBase + HandlerID(k%2)
				if err := tr.Send(src, dst, id, nil, 10+src, Class(k%3)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Send(src, dst, HandlerTelemetry, nil, 999, ControlClass); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr.Quiesce()

	snap := lg.Snapshot()
	stats := tr.Stats()
	if got, want := snap.TotalPayloadBytes(), stats.TotalBytes(); got != want {
		t.Errorf("Σ handler payload bytes = %d, want TotalBytes %d", got, want)
	}
	if got, want := snap.TotalWireBytes(), stats.WireBytes; got != want {
		t.Errorf("Σ link wire bytes = %d, want WireBytes %d", got, want)
	}
	var msgs, recv uint64
	for _, h := range snap.Handlers {
		if h.ID == HandlerTelemetry {
			t.Error("telemetry traffic leaked into the ledger")
		}
		msgs += h.Msgs
		recv += h.RecvMsgs
	}
	if want := stats.TotalMessages(); msgs != want || recv != want {
		t.Errorf("ledger msgs=%d recv=%d, want %d", msgs, recv, want)
	}
	// The accounts are live obs counters in the sender's place registry.
	s1 := o.Place(1).Snapshot()
	if s1.Counter("x10rt.h64.msgs") == 0 {
		t.Error("x10rt.h64.msgs missing from place 1 registry")
	}
	if s1.Counter("x10rt.link.1-0.wire") == 0 {
		t.Error("x10rt.link.1-0.wire missing from place 1 registry")
	}
	if o.Place(0).Snapshot().Counter("x10rt.link.1-0.wire") != 0 {
		t.Error("link counters must live in the sender's registry only")
	}
}

// TestWireLedgerTCPSumEquality checks sum-equality on the serializing
// transport, where wire bytes are real encoded frame bytes, and that
// encode/decode nanoseconds are attributed.
func TestWireLedgerTCPSumEquality(t *testing.T) {
	const places = 3
	mesh := newTestMesh(t, places)
	o := obs.New()
	lg := NewWireLedger(places, o.Place)
	var mu sync.Mutex
	got := 0
	for _, tr := range mesh {
		tr.AttachWireLedger(lg)
		if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
			mu.Lock()
			got++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	sent := 0
	for src := 0; src < places; src++ {
		for dst := 0; dst < places; dst++ { // includes self-sends
			for k := 0; k < 5; k++ {
				p := wirePayload{Value: 100*src + dst, Tag: "wire"}
				if err := mesh[src].Send(src, dst, UserHandlerBase, p, 32, DataClass); err != nil {
					t.Fatal(err)
				}
				sent++
			}
		}
	}
	waitCount(t, sent, func() int { mu.Lock(); defer mu.Unlock(); return got })

	// Each endpoint's Stats is its egress, so the mesh total is their sum.
	var stats Stats
	for _, tr := range mesh {
		stats = stats.Add(tr.Stats())
	}
	snap := lg.Snapshot()
	if got, want := snap.TotalPayloadBytes(), stats.TotalBytes(); got != want {
		t.Errorf("Σ handler payload bytes = %d, want %d", got, want)
	}
	if got, want := snap.TotalWireBytes(), stats.WireBytes; got != want {
		t.Errorf("Σ link wire bytes = %d, want %d", got, want)
	}
	var encNs, decNs uint64
	for _, h := range snap.Handlers {
		encNs += h.EncNs
		decNs += h.DecNs
	}
	if encNs == 0 {
		t.Error("no encode ns attributed on a serializing transport")
	}
	if decNs == 0 {
		t.Error("no decode ns attributed on a serializing transport")
	}
}

// TestWireLedgerBatchingTCP checks attribution through the batching
// decorator over TCP: per-link wire bytes reflect batch frames (sum
// still equals the inner transport's WireBytes), queue wait and batch
// counts appear, and compression accounting keeps comp <= raw.
func TestWireLedgerBatchingTCP(t *testing.T) {
	const places = 2
	mesh := newTestMesh(t, places)
	o := obs.New()
	lg := NewWireLedger(places, o.Place)
	var mu sync.Mutex
	got := 0
	batched := make([]*BatchingTransport, places)
	for p, tr := range mesh {
		b := NewBatchingTransport(tr, BatchOptions{
			MaxDelay:    50 * time.Millisecond,
			MaxFrames:   16,
			CompressMin: 64, // small enough that batch bodies qualify
		})
		batched[p] = b
		defer b.Close()
		b.AttachWireLedger(lg)
		if err := b.Register(UserHandlerBase, func(src, dst int, payload any) {
			mu.Lock()
			got++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	const n = 40
	for k := 0; k < n; k++ {
		p := wirePayload{Value: k, Tag: "compressible compressible compressible"}
		if err := batched[0].Send(0, 1, UserHandlerBase, p, 64, DataClass); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched[0].Flush(0); err != nil {
		t.Fatal(err)
	}
	waitCount(t, n, func() int { mu.Lock(); defer mu.Unlock(); return got })

	snap := lg.Snapshot()
	if got, want := snap.TotalWireBytes(), mesh[0].Stats().WireBytes+mesh[1].Stats().WireBytes; got != want {
		t.Errorf("Σ link wire bytes = %d, want %d", got, want)
	}
	var link *WireLinkStat
	for i := range snap.Links {
		if snap.Links[i].Src == 0 && snap.Links[i].Dst == 1 {
			link = &snap.Links[i]
		}
	}
	if link == nil {
		t.Fatal("no 0->1 link account")
	}
	if link.Msgs != n {
		t.Errorf("link msgs = %d, want %d", link.Msgs, n)
	}
	if link.Batches == 0 {
		t.Error("no batch flushes recorded")
	}
	if link.Batches >= n {
		t.Errorf("batches = %d: batching collapsed to one message per flush", link.Batches)
	}
	if link.Raw == 0 || link.Comp == 0 || link.Comp > link.Raw {
		t.Errorf("compression accounting raw=%d comp=%d", link.Raw, link.Comp)
	}
	// Batch frames amortize headers: wire bytes must undercut one frame
	// per message, and compressed bodies must have won here.
	if link.Wire >= link.Raw {
		t.Errorf("wire=%d >= raw=%d: compression recorded but not realized", link.Wire, link.Raw)
	}
}

// TestWireLedgerDecoratorForwarding checks AttachWireLedger pierces a
// decorator and reaches the inner transport, whose link table the
// ledger's link rows then read.
func TestWireLedgerDecoratorForwarding(t *testing.T) {
	inner, err := NewChanTransport(ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewBatchingTransport(inner, BatchOptions{})
	defer tr.Close()
	lg := NewWireLedger(2, nil)
	tr.AttachWireLedger(lg)
	tr.Register(UserHandlerBase, func(src, dst int, payload any) {})
	if err := tr.Send(0, 1, UserHandlerBase, nil, 7, DataClass); err != nil {
		t.Fatal(err)
	}
	tr.Quiesce()
	snap := lg.Snapshot()
	if snap.TotalPayloadBytes() != 7 || snap.TotalWireBytes() != 7 || len(snap.Links) != 1 || snap.Links[0].Msgs != 1 {
		t.Errorf("ledger not attached through decorator: %+v", snap)
	}
}
