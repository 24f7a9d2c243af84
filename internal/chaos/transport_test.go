package chaos

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/x10rt"
)

// scriptedDump drives a chaos transport through a fixed, single-
// goroutine message script with every fault class enabled and returns
// the fault-log dump. Per-link send order is fully deterministic here,
// so the dump must be byte-identical across invocations with the same
// seed — the replay guarantee at its sharpest.
func scriptedDump(t *testing.T, seed int64) ([]byte, map[string]uint64, int64) {
	t.Helper()
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 3})
	if err != nil {
		t.Fatal(err)
	}
	ct := Wrap(inner, Options{
		Seed:        seed,
		DropProb:    0.10,
		DupProb:     0.05,
		DelayProb:   0.30,
		ReorderProb: 0.20,
		DelayWindow: 3,
	})
	var received atomic.Int64
	if err := ct.Register(x10rt.UserHandlerBase, func(src, dst int, payload any) {
		received.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	const msgs = 240
	for i := 0; i < msgs; i++ {
		src := i % 3
		dst := (i*7 + 1) % 3
		if dst == src {
			dst = (dst + 1) % 3
		}
		class := x10rt.DataClass
		if i%2 == 0 {
			class = x10rt.ControlClass
		}
		if err := ct.Send(src, dst, x10rt.UserHandlerBase, i, 8, class); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Heal completely: flush holdbacks, then deliver the morgue (which
	// itself may not be held again — probabilities apply at first send
	// only... ReleaseDropped forwards directly to the inner transport).
	ct.Drain()
	ct.ReleaseDropped()
	ct.Drain()

	var dump bytes.Buffer
	if err := ct.FaultLog().WriteDump(&dump); err != nil {
		t.Fatal(err)
	}
	counts := ct.FaultCounts()
	// Every scripted message must eventually arrive, plus one extra
	// delivery per duplicate.
	want := int64(msgs) + int64(counts[FaultDup.String()])
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := received.Load()
	ct.Close()
	if got != want {
		t.Fatalf("delivered %d messages, want %d (faults %v)", got, want, counts)
	}
	return dump.Bytes(), counts, got
}

// TestFaultDumpByteIdentical is the acceptance check for deterministic
// replay: two runs of the same seed produce byte-identical fault
// dumps; a different seed produces a different one.
func TestFaultDumpByteIdentical(t *testing.T) {
	d1, counts, _ := scriptedDump(t, 42)
	d2, _, _ := scriptedDump(t, 42)
	if !bytes.Equal(d1, d2) {
		t.Fatalf("same-seed dumps differ:\n--- run1 ---\n%s--- run2 ---\n%s", d1, d2)
	}
	for _, k := range []FaultKind{FaultDrop, FaultDup, FaultDelay, FaultReorder} {
		if counts[k.String()] == 0 {
			t.Errorf("seed 42 injected no %s faults; script too short or decisions broken", k)
		}
	}
	d3, _, _ := scriptedDump(t, 43)
	if bytes.Equal(d1, d3) {
		t.Fatal("different seeds produced identical fault dumps")
	}
}

// TestFaultDumpIsValidFlightFormat re-implements tracecheck's flight
// dump invariants over the chaos log: a well-formed header line whose
// events count matches the body, then strictly increasing seq and
// non-decreasing ts.
func TestFaultDumpIsValidFlightFormat(t *testing.T) {
	dump, _, _ := scriptedDump(t, 7)
	lines := bytes.Split(bytes.TrimSpace(dump), []byte("\n"))
	var hdr struct {
		Type    string `json:"type"`
		Version int    `json:"version"`
		Events  int    `json:"events"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	if hdr.Type != "apgas-flight" || hdr.Version != 1 {
		t.Fatalf("header = %+v, want apgas-flight v1", hdr)
	}
	if hdr.Events != len(lines)-1 {
		t.Fatalf("header says %d events, body has %d", hdr.Events, len(lines)-1)
	}
	lastSeq, lastTS := uint64(0), int64(-1)
	for i, ln := range lines[1:] {
		var ev struct {
			Seq  uint64 `json:"seq"`
			TS   int64  `json:"ts"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not increasing (prev %d)", i, ev.Seq, lastSeq)
		}
		if ev.TS < lastTS {
			t.Fatalf("event %d: ts %d went backwards (prev %d)", i, ev.TS, lastTS)
		}
		lastSeq, lastTS = ev.Seq, ev.TS
	}
}

// TestPartitionHealsAndDelivers: messages crossing the cut are held but
// never lost — the partition heals by wall time even with no follow-up
// traffic to trigger the sequence-based release.
func TestPartitionHealsAndDelivers(t *testing.T) {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	ct := Wrap(inner, Options{
		Seed:          1,
		Cut:           []int{1},
		PartitionMsgs: 8,
		HealAfter:     30 * time.Millisecond,
	})
	defer ct.Close()
	var received atomic.Int64
	ct.Register(x10rt.UserHandlerBase, func(src, dst int, payload any) { received.Add(1) })
	for i := 0; i < 3; i++ {
		if err := ct.Send(0, 1, x10rt.UserHandlerBase, i, 8, x10rt.DataClass); err != nil {
			t.Fatal(err)
		}
	}
	if got := ct.FaultCounts()[FaultPartition.String()]; got != 3 {
		t.Fatalf("partition held %d messages, want 3", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() != 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := received.Load(); got != 3 {
		t.Fatalf("partition never healed: %d/3 delivered", got)
	}
}

// TestSlowPlaceDelaysButDelivers: a slow place's traffic arrives late
// but intact, and the decision is logged.
func TestSlowPlaceDelaysButDelivers(t *testing.T) {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	ct := Wrap(inner, Options{Seed: 1, SlowPlace: 1, SlowLatency: 20 * time.Millisecond})
	defer ct.Close()
	done := make(chan struct{}, 1)
	ct.Register(x10rt.UserHandlerBase, func(src, dst int, payload any) { done <- struct{}{} })
	start := time.Now()
	if err := ct.Send(0, 1, x10rt.UserHandlerBase, nil, 8, x10rt.DataClass); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("slow-place message never delivered")
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("slow-place message arrived after %v, want >= ~20ms", d)
	}
	if ct.FaultCounts()[FaultSlow.String()] != 1 {
		t.Errorf("slow fault not logged: %v", ct.FaultCounts())
	}
}

// TestDropMorgueAndRelease: drops report success to the sender, park
// the payload, and ReleaseDropped heals them in deterministic order.
func TestDropMorgueAndRelease(t *testing.T) {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	ct := Wrap(inner, Options{Seed: 1, DropProb: 1, MaxDrops: 2})
	defer ct.Close()
	var received atomic.Int64
	ct.Register(x10rt.UserHandlerBase, func(src, dst int, payload any) { received.Add(1) })
	for i := 0; i < 4; i++ {
		if err := ct.Send(0, 1, x10rt.UserHandlerBase, i, 8, x10rt.DataClass); err != nil {
			t.Fatalf("dropped send must still report success: %v", err)
		}
	}
	ct.Drain()
	if got := received.Load(); got != 2 {
		t.Fatalf("MaxDrops=2: %d delivered before release, want 2", got)
	}
	if ct.DroppedCount() != 2 {
		t.Fatalf("morgue holds %d, want 2", ct.DroppedCount())
	}
	if n := ct.ReleaseDropped(); n != 2 {
		t.Fatalf("ReleaseDropped delivered %d, want 2", n)
	}
	ct.Drain()
	if got := received.Load(); got != 4 {
		t.Fatalf("after healing %d/4 delivered", got)
	}
	if ct.DroppedCount() != 0 {
		t.Fatal("morgue not emptied")
	}
}

// TestTelemetryNeverFaulted: the observation plane must pass through
// untouched even with every fault probability at 1.
func TestTelemetryNeverFaulted(t *testing.T) {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	ct := Wrap(inner, Options{Seed: 1, DropProb: 1, DelayProb: 1})
	defer ct.Close()
	done := make(chan struct{}, 1)
	ct.Register(x10rt.HandlerTelemetry, func(src, dst int, payload any) { done <- struct{}{} })
	if err := ct.Send(0, 1, x10rt.HandlerTelemetry, nil, 8, x10rt.ControlClass); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("telemetry message was faulted")
	}
	if len(ct.FaultCounts()) != 0 {
		t.Fatalf("telemetry traffic logged faults: %v", ct.FaultCounts())
	}
}

// TestBatchedMessagesFaultedOneByOne pins that a BatchingTransport over
// a chaos wrapper hands the wrapper one Send per message: a coalesced
// batch must not reach the inner transport in one call that skips the
// per-message fault decisions. Each message has its own handler id, so
// the Filter's call log shows both the decisions and their order.
func TestBatchedMessagesFaultedOneByOne(t *testing.T) {
	const msgs = 8
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var decided []x10rt.HandlerID
	ct := Wrap(inner, Options{Seed: 1, Filter: func(src, dst int, id x10rt.HandlerID, class x10rt.Class) bool {
		mu.Lock()
		decided = append(decided, id)
		mu.Unlock()
		return true
	}})
	// A long MaxDelay keeps the background flusher out: after the first
	// (idle) send, the rest queue until the explicit Flush.
	bt := x10rt.NewBatchingTransport(ct, x10rt.BatchOptions{MaxDelay: time.Hour, MaxFrames: 2 * msgs})
	defer bt.Close()
	var delivered atomic.Int64
	for i := 0; i < msgs; i++ {
		if err := bt.Register(x10rt.UserHandlerBase+x10rt.HandlerID(i), func(int, int, any) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		if err := bt.Send(0, 1, x10rt.UserHandlerBase+x10rt.HandlerID(i), i, 8, x10rt.DataClass); err != nil {
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
	mu.Lock()
	defer mu.Unlock()
	if len(decided) != msgs {
		t.Fatalf("%d fault decisions for %d messages", len(decided), msgs)
	}
	for i, id := range decided {
		if want := x10rt.UserHandlerBase + x10rt.HandlerID(i); id != want {
			t.Fatalf("decision %d was for handler %d, want %d (send order)", i, id, want)
		}
	}
	if seq := ct.links[0*ct.n+1].seq; seq != msgs {
		t.Errorf("link 0->1 consumed %d fault-stream sequence numbers, want %d", seq, msgs)
	}
}
