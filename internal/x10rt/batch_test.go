package x10rt

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// encodeTestBatch builds the BatchMsg slice and encoded v4 frame for
// frame tests.
func encodeTestBatch(t *testing.T, n int, payloadBytes, compressMin int) ([]BatchMsg, []byte) {
	t.Helper()
	msgs := make([]BatchMsg, n)
	for i := range msgs {
		msgs[i] = BatchMsg{
			ID:      UserHandlerBase,
			Payload: wirePayload{Value: i, Tag: "batch"},
			Bytes:   payloadBytes,
			Class:   ControlClass,
		}
	}
	return msgs, encodeV4(t, &typeTableSender{}, 3, msgs, compressMin, 0, false)
}

func TestBatchFrameRoundTrip(t *testing.T) {
	for _, compressMin := range []int{0, 1} {
		t.Run(fmt.Sprintf("compressMin=%d", compressMin), func(t *testing.T) {
			msgs, frame := encodeTestBatch(t, 17, 24, compressMin)
			r := bytes.NewReader(frame)
			version, n, err := readFrameHeader(r)
			if err != nil {
				t.Fatalf("readFrameHeader: %v", err)
			}
			if version != batchVersionCodec || n != r.Len() {
				t.Fatalf("version = %d, length %d; want %d, %d", version, n, batchVersionCodec, r.Len())
			}
			if compressMin > 0 && frame[frameHeaderSize]&batchFlagCompressed == 0 {
				t.Error("compressible batch was not compressed")
			}
			got, _ := decodeV4(t, &typeTableReceiver{}, frame)
			if len(got) != len(msgs) {
				t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
			}
			for i, m := range got {
				if m.Src != 3 || m.ID != UserHandlerBase || m.Class != ControlClass || m.Bytes != 24 {
					t.Fatalf("message %d header = %+v", i, m)
				}
				if p := m.Payload.(wirePayload); p.Value != i || p.Tag != "batch" {
					t.Fatalf("message %d payload = %+v", i, p)
				}
			}
		})
	}
}

func TestBatchFrameCompressionShrinks(t *testing.T) {
	_, raw := encodeTestBatch(t, 64, 24, 0)
	_, comp := encodeTestBatch(t, 64, 24, 1)
	if len(comp) >= len(raw) {
		t.Fatalf("compressed frame %dB >= raw frame %dB", len(comp), len(raw))
	}
}

func TestDecodeBatchRejectsCorruption(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"zero-count":       {0x00, 0x00, 0x00, 0x00},
		"bad-flags":        {0x04, 0x00, 0x00, 0x01},
		"oversized-rawlen": {0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00},
		"flate-garbage":    append([]byte{0x01, 0x20}, []byte("this is not a deflate stream")...),
		"count-gt-body":    {0x00, 0x00, 0x00, 0xff, 0xff, 0x03},
	}
	for name, payload := range cases {
		if _, _, err := decodeCodecBatchPayloadLG(payload, &typeTableReceiver{}, nil, 1); err == nil {
			t.Errorf("%s: decode accepted corrupt payload", name)
		}
	}
	// Torn batch: a valid frame with the tail cut off must error, not panic.
	_, frame := encodeTestBatch(t, 4, 16, 0)
	if _, _, err := decodeCodecBatchPayloadLG(frame[frameHeaderSize:len(frame)-3], &typeTableReceiver{}, nil, 1); err == nil {
		t.Error("torn batch decoded without error")
	}
}

// newBatchedPair returns a 2-endpoint TCP mesh with endpoint 0 wrapped
// in a BatchingTransport.
func newBatchedPair(t *testing.T, opts BatchOptions) (*BatchingTransport, []*TCPTransport) {
	t.Helper()
	mesh, err := NewLocalTCPMesh(2)
	if err != nil {
		t.Fatalf("NewLocalTCPMesh: %v", err)
	}
	bt := NewBatchingTransport(mesh[0], opts)
	t.Cleanup(func() {
		bt.Close() // closes mesh[0]
		mesh[1].Close()
	})
	return bt, mesh
}

func TestBatchingDeliversInOrderOverTCP(t *testing.T) {
	const n = 500
	bt, mesh := newBatchedPair(t, BatchOptions{MaxDelay: 50 * time.Millisecond, MaxFrames: 32})
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	if err := mesh[1].Register(UserHandlerBase, func(src, dst int, payload any) {
		mu.Lock()
		got = append(got, payload.(wirePayload).Value)
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Register(UserHandlerBase, func(src, dst int, payload any) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := bt.Send(0, 1, UserHandlerBase, wirePayload{Value: i}, 16, ControlClass); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if err := bt.Flush(0); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		t.Fatalf("delivered %d of %d messages", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d arrived with value %d: FIFO broken", i, v)
		}
	}
	batches, msgs := bt.BatchStats()
	if msgs != n {
		t.Errorf("batch layer carried %d messages, want %d", msgs, n)
	}
	if batches >= n {
		t.Errorf("no coalescing: %d batches for %d messages", batches, n)
	}
}

func TestBatchingIdleLinkFlushesImmediately(t *testing.T) {
	// A manual clock where every send sees the link idle: each message
	// must be flushed by its own Send call, no background flusher needed.
	var now atomic.Int64
	bt, mesh := newBatchedPair(t, BatchOptions{
		MaxDelay: time.Millisecond,
		Now:      func() int64 { return now.Load() },
	})
	var delivered atomic.Int64
	if err := mesh[1].Register(UserHandlerBase, func(src, dst int, payload any) {
		delivered.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Register(UserHandlerBase, func(src, dst int, payload any) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		now.Add(int64(10 * time.Millisecond)) // link goes idle between sends
		if err := bt.Send(0, 1, UserHandlerBase, wirePayload{Value: i}, 16, DataClass); err != nil {
			t.Fatal(err)
		}
	}
	if batches, _ := bt.BatchStats(); batches != 5 {
		t.Errorf("idle sends produced %d batches, want 5 (one each)", batches)
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() != 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != 5 {
		t.Fatalf("delivered %d of 5", delivered.Load())
	}
}

func TestBatchingSizeThresholdFlushes(t *testing.T) {
	// A frozen clock: nothing is ever idle or aged, so only the frame
	// count threshold can flush.
	bt, _ := newBatchedPair(t, BatchOptions{
		MaxDelay:  time.Hour,
		MaxFrames: 8,
		Now:       func() int64 { return 0 },
	})
	if err := bt.Register(UserHandlerBase, func(src, dst int, payload any) {}); err != nil {
		t.Fatal(err)
	}
	// The very first send on a link takes the idle fast path (batch of
	// one); after that the frozen clock leaves only the size threshold.
	for i := 0; i < 25; i++ {
		if err := bt.Send(0, 1, UserHandlerBase, wirePayload{Value: i}, 16, ControlClass); err != nil {
			t.Fatal(err)
		}
	}
	batches, msgs := bt.BatchStats()
	if batches != 4 || msgs != 25 {
		t.Errorf("batches=%d msgs=%d, want 4 batches (1 idle + 3 full) carrying 25", batches, msgs)
	}
}

func TestBatchingWireBytesShrinkWithCompression(t *testing.T) {
	// Compressible control payloads: post-batch, post-compression wire
	// bytes must undercut the modeled byte total, and the telemetry
	// attribution (PlaceStats) must agree with Stats.
	bt, _ := newBatchedPair(t, BatchOptions{
		MaxDelay:    time.Hour,
		MaxFrames:   64,
		CompressMin: 64,
		Now:         func() int64 { return 0 },
	})
	if err := bt.Register(UserHandlerBase, func(src, dst int, payload any) {}); err != nil {
		t.Fatal(err)
	}
	const n, modeled = 64, 256
	for i := 0; i < n; i++ {
		if err := bt.Send(0, 1, UserHandlerBase, wirePayload{Tag: "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"}, modeled, ControlClass); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Flush(0); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s := bt.Stats()
	if s.WireBytes == 0 {
		t.Fatal("WireBytes not counted")
	}
	if s.WireBytes >= n*modeled {
		t.Errorf("wire bytes %d not reduced below modeled %d", s.WireBytes, n*modeled)
	}
	if ps := bt.PlaceStats(0); ps.WireBytes != s.WireBytes {
		t.Errorf("PlaceStats(0).WireBytes = %d, Stats().WireBytes = %d", ps.WireBytes, s.WireBytes)
	}
}

func TestBatchingRejectsUnregisteredHandler(t *testing.T) {
	bt, _ := newBatchedPair(t, BatchOptions{})
	err := bt.Send(0, 1, UserHandlerBase+9, wirePayload{}, 8, DataClass)
	if err == nil {
		t.Fatal("Send with unregistered handler succeeded")
	}
}

func TestBatchingCloseSemantics(t *testing.T) {
	bt, _ := newBatchedPair(t, BatchOptions{})
	if err := bt.Register(UserHandlerBase, func(src, dst int, payload any) {}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := bt.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := bt.Send(0, 1, UserHandlerBase, wirePayload{}, 8, DataClass); err != ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

func TestBatchingOverChanKeepsSumEquality(t *testing.T) {
	// The batching wrapper must preserve the telemetry invariant: total
	// Stats equals the sum of PlaceStats, wire bytes included.
	inner, err := NewChanTransport(ChanOptions{Places: 4})
	if err != nil {
		t.Fatal(err)
	}
	bt := NewBatchingTransport(inner, BatchOptions{MaxFrames: 4})
	defer bt.Close()
	if err := bt.Register(UserHandlerBase, func(src, dst int, payload any) {}); err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			for k := 0; k <= src; k++ {
				if err := bt.Send(src, dst, UserHandlerBase, nil, 10+k, DataClass); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	bt.Quiesce()
	var sum Stats
	for p := 0; p < 4; p++ {
		sum = sum.Add(bt.PlaceStats(p))
	}
	if got := bt.Stats(); got != sum {
		t.Errorf("Stats %+v != Σ PlaceStats %+v", got, sum)
	}
}
