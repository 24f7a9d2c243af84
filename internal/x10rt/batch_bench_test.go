package x10rt

import (
	"sync/atomic"
	"testing"
	"time"
)

// The transport microbenchmarks measure the wire fast path over a real
// local TCP pair: place 0 sends b.N messages to place 1 and waits for
// the last delivery. Reported msgs/s (and ns/op) cover the full
// send-encode-write-read-decode-dispatch pipeline; B/op and allocs/op
// (-benchmem) cover the sender's goroutines only, which is where the
// pooled encoder layer pays off.

type benchMesh struct {
	send      Transport
	delivered atomic.Int64
	done      chan struct{}
	target    int64
}

func newBenchMesh(b *testing.B, batch bool, opts BatchOptions) (*benchMesh, func()) {
	b.Helper()
	mesh, err := NewLocalTCPMesh(2)
	if err != nil {
		b.Fatal(err)
	}
	m := &benchMesh{send: mesh[0]}
	closeAll := func() {
		m.send.Close()
		mesh[1].Close()
	}
	if batch {
		m.send = NewBatchingTransport(mesh[0], opts)
		closeAll = func() {
			m.send.Close() // closes mesh[0]
			mesh[1].Close()
		}
	}
	h := func(src, dst int, payload any) {
		if m.delivered.Add(1) == atomic.LoadInt64(&m.target) {
			close(m.done)
		}
	}
	if err := mesh[1].Register(UserHandlerBase, h); err != nil {
		b.Fatal(err)
	}
	if err := m.send.Register(UserHandlerBase, func(src, dst int, payload any) {}); err != nil {
		b.Fatal(err)
	}
	return m, closeAll
}

func (m *benchMesh) run(b *testing.B, payload any, bytes int, flush func()) {
	m.delivered.Store(0)
	m.done = make(chan struct{})
	atomic.StoreInt64(&m.target, int64(b.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.send.Send(0, 1, UserHandlerBase, payload, bytes, ControlClass); err != nil {
			b.Fatal(err)
		}
	}
	if flush != nil {
		flush()
	}
	select {
	case <-m.done:
	case <-time.After(60 * time.Second):
		b.Fatalf("delivered %d of %d", m.delivered.Load(), b.N)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkTCPSmallFrames is the unbatched baseline for small control
// frames: one v4 frame and one write syscall per message.
func BenchmarkTCPSmallFrames(b *testing.B) {
	m, closeAll := newBenchMesh(b, false, BatchOptions{})
	defer closeAll()
	m.run(b, wirePayload{Value: 7, Tag: "ctl"}, 24, nil)
}

// BenchmarkTCPSmallFramesBatched is the same workload through the
// BatchingTransport: many messages per v4 frame, one write syscall per
// batch. The acceptance gate for the wire fast path is >= 3x the
// unbatched msgs/s (see TestTransportBatchSpeedup).
func BenchmarkTCPSmallFramesBatched(b *testing.B) {
	m, closeAll := newBenchMesh(b, true, BatchOptions{MaxDelay: 200 * time.Microsecond, MaxFrames: 64})
	defer closeAll()
	f := m.send.(*BatchingTransport)
	m.run(b, wirePayload{Value: 7, Tag: "ctl"}, 24, func() { _ = f.Flush(0) })
}

// BenchmarkTCPLargePayload ships 1 MiB payloads unbatched: the framing
// overhead is negligible here, so this guards the bulk path against
// copy and allocation regressions.
func BenchmarkTCPLargePayload(b *testing.B) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	m, closeAll := newBenchMesh(b, false, BatchOptions{})
	defer closeAll()
	b.SetBytes(1 << 20)
	m.run(b, payload, len(payload), nil)
}

// BenchmarkTCPLargePayloadBatched ships 1 MiB payloads through the
// batching wrapper: the byte threshold flushes each payload as its own
// batch, so this measures the wrapper's overhead on bulk traffic.
func BenchmarkTCPLargePayloadBatched(b *testing.B) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	m, closeAll := newBenchMesh(b, true, BatchOptions{MaxDelay: 200 * time.Microsecond})
	defer closeAll()
	f := m.send.(*BatchingTransport)
	b.SetBytes(1 << 20)
	m.run(b, payload, len(payload), func() { _ = f.Flush(0) })
}

func init() {
	RegisterWireType([]byte(nil))
}
