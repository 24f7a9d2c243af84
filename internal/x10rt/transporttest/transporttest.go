// Package transporttest is the cross-transport conformance suite of
// the x10rt Transport contract. Every transport implementation — and
// every decorator, since decorators must preserve the contract they
// wrap — runs the same battery through TestTransport:
//
//   - per-link FIFO ordering,
//   - concurrent multi-goroutine sends,
//   - handler re-entrancy (handlers that Send),
//   - payload-byte accounting against Stats/PlaceStats,
//   - Close-while-sending semantics.
//
// The suite is transport-shape agnostic: an in-process transport is one
// object serving every place, while a TCP mesh is one endpoint object
// per place. The Mesh adapter normalizes both.
package transporttest

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/x10rt"
)

// Payload is the message body the suite sends. It is registered as a
// wire type (a flat struct, so it rides the binary codec) so
// serializing transports can carry it.
type Payload struct {
	Seq int
	Tag string
}

func init() { x10rt.RegisterWireType(Payload{}) }

// Mesh presents one transport universe to the suite.
type Mesh struct {
	// Places is the number of places in the universe (>= 2 required).
	Places int
	// Endpoint returns the Transport that place p sends from. For
	// single-object transports this is the same value for every p.
	Endpoint func(p int) x10rt.Transport
	// Register installs a handler at every place.
	Register func(id x10rt.HandlerID, h x10rt.Handler) error
	// Close tears the whole universe down. It must be idempotent at the
	// Transport level (the suite closes endpoints again afterwards).
	Close func() error
}

// Factory builds a fresh Mesh with the given number of places. The
// factory owns cleanup registration (t.Cleanup) for anything Close
// does not release.
type Factory func(t *testing.T, places int) *Mesh

// handlerID is where the suite registers its handlers, clear of the
// runtime's reserved range.
const handlerID = x10rt.UserHandlerBase + 100

// await polls until pred returns true or the deadline passes.
func await(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// flushAll pushes pending batches out on transports that buffer.
func flushAll(m *Mesh) {
	seen := map[x10rt.Transport]bool{}
	for p := 0; p < m.Places; p++ {
		ep := m.Endpoint(p)
		if seen[ep] {
			continue
		}
		seen[ep] = true
		_ = ep.Flush(-1)
	}
}

// TestTransport runs the conformance battery against the factory.
func TestTransport(t *testing.T, factory Factory) {
	t.Run("PerLinkFIFO", func(t *testing.T) { testPerLinkFIFO(t, factory) })
	t.Run("ConcurrentSends", func(t *testing.T) { testConcurrentSends(t, factory) })
	t.Run("HandlerReentrancy", func(t *testing.T) { testHandlerReentrancy(t, factory) })
	t.Run("ByteAccounting", func(t *testing.T) { testByteAccounting(t, factory) })
	t.Run("CloseWhileSending", func(t *testing.T) { testCloseWhileSending(t, factory) })
}

// TestTransportDeath runs the death-semantics battery: after KillPlace,
// sends touching the dead place fail fast with the typed error, no frame
// is ever delivered twice (discarding queued frames for the victim is
// allowed; duplicating anything is not), and every NotifyDeath
// subscription observes the death exactly once per surviving place.
func TestTransportDeath(t *testing.T, factory Factory) {
	t.Run("FailFastTypedError", func(t *testing.T) { testDeathFailFast(t, factory) })
	t.Run("NotifierOncePerSurvivor", func(t *testing.T) { testDeathNotifier(t, factory) })
	t.Run("NoDoubleDelivery", func(t *testing.T) { testDeathNoDoubleDelivery(t, factory) })
}

// endpoints returns the distinct transport objects of the mesh.
func endpoints(m *Mesh) []x10rt.Transport {
	seen := map[x10rt.Transport]bool{}
	var eps []x10rt.Transport
	for p := 0; p < m.Places; p++ {
		if ep := m.Endpoint(p); !seen[ep] {
			seen[ep] = true
			eps = append(eps, ep)
		}
	}
	return eps
}

// killAll kills place v the way a cluster's failure detector would: on
// every distinct endpoint. A single-object transport sees one call; a
// mesh of per-place endpoints sees one per endpoint.
func killAll(t *testing.T, m *Mesh, v int) {
	t.Helper()
	for _, ep := range endpoints(m) {
		if err := ep.KillPlace(v); err != nil {
			t.Fatalf("KillPlace(%d) on %T: %v", v, ep, err)
		}
	}
}

// testDeathFailFast: sends to or from the victim return *PlaceDeadError
// naming it (and unwrap to ErrPlaceDead); survivor links keep working.
func testDeathFailFast(t *testing.T, factory Factory) {
	const places, victim = 3, 1
	m := factory(t, places)
	var got atomic.Int64
	if err := m.Register(handlerID, func(src, dst int, payload any) { got.Add(1) }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	killAll(t, m, victim)

	for _, link := range [][2]int{{0, victim}, {victim, 0}} {
		err := m.Endpoint(link[0]).Send(link[0], link[1], handlerID, Payload{}, 8, x10rt.DataClass)
		if err == nil {
			t.Fatalf("Send %d->%d after kill succeeded, want fail-fast", link[0], link[1])
		}
		if !errors.Is(err, x10rt.ErrPlaceDead) {
			t.Errorf("Send %d->%d: error %v does not unwrap to ErrPlaceDead", link[0], link[1], err)
		}
		var pde *x10rt.PlaceDeadError
		if !errors.As(err, &pde) {
			t.Errorf("Send %d->%d: error %T is not *PlaceDeadError", link[0], link[1], err)
		} else if pde.Place != victim {
			t.Errorf("Send %d->%d: dead place reported as %d, want %d", link[0], link[1], pde.Place, victim)
		}
	}

	// The survivors' link is unaffected.
	if err := m.Endpoint(0).Send(0, 2, handlerID, Payload{Seq: 1}, 8, x10rt.DataClass); err != nil {
		t.Fatalf("survivor Send 0->2: %v", err)
	}
	flushAll(m)
	await(t, "survivor delivery", func() bool { return got.Load() == 1 })
	if err := m.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// testDeathNotifier: every subscription hears (victim, survivor) exactly
// once per surviving place, the victim never observes its own death, and
// a repeated kill is silent.
func testDeathNotifier(t *testing.T, factory Factory) {
	const places, victim = 4, 2
	m := factory(t, places)
	if err := m.Register(handlerID, func(src, dst int, payload any) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var mu sync.Mutex
	fired := map[[2]int]int{}
	eps := endpoints(m)
	for _, ep := range eps {
		ep.NotifyDeath(func(dead, observer int) {
			mu.Lock()
			fired[[2]int{dead, observer}]++
			mu.Unlock()
		})
	}
	killAll(t, m, victim)

	await(t, "death notifications", func() bool {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for k, c := range fired {
			if k[0] == victim && c > 0 {
				n++
			}
		}
		return n >= places-1
	})
	// Grace period: late or duplicate callbacks would arrive now.
	time.Sleep(20 * time.Millisecond)
	// A second kill of the same place must not renotify.
	for _, ep := range eps {
		_ = ep.KillPlace(victim)
	}
	time.Sleep(20 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	for p := 0; p < places; p++ {
		n := fired[[2]int{victim, p}]
		switch {
		case p == victim && n != 0:
			t.Errorf("victim observed its own death %d times", n)
		case p != victim && n != 1:
			t.Errorf("survivor %d observed the death %d times, want exactly once", p, n)
		}
	}
	for k, c := range fired {
		if k[0] != victim && c != 0 {
			t.Errorf("spurious notification for non-victim place %d at %d", k[0], k[1])
		}
	}
	if err := m.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// testDeathNoDoubleDelivery streams sequenced messages to a survivor and
// to the victim while the kill lands mid-stream. Contract: no (dst, seq)
// is delivered twice; every survivor-bound send that reported success is
// delivered exactly once; victim-bound frames may be discarded (queued
// ones must be) but never duplicated.
func testDeathNoDoubleDelivery(t *testing.T, factory Factory) {
	const places, victim, stream = 3, 2, 400
	m := factory(t, places)
	var mu sync.Mutex
	delivered := map[[2]int]int{} // (dst, seq) -> count
	err := m.Register(handlerID, func(src, dst int, payload any) {
		p := payload.(Payload)
		mu.Lock()
		delivered[[2]int{dst, p.Seq}]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}

	okToSurvivor := make([]bool, stream)
	killAt := stream / 3
	for seq := 0; seq < stream; seq++ {
		if seq == killAt {
			killAll(t, m, victim)
		}
		if err := m.Endpoint(0).Send(0, 1, handlerID, Payload{Seq: seq}, 8, x10rt.DataClass); err != nil {
			t.Fatalf("survivor Send seq %d: %v", seq, err)
		}
		okToSurvivor[seq] = true
		// Victim-bound: success before the kill, fail-fast after; either
		// way never counted on, never duplicated.
		_ = m.Endpoint(0).Send(0, victim, handlerID, Payload{Seq: seq}, 8, x10rt.DataClass)
	}
	flushAll(m)
	await(t, "survivor stream", func() bool {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for k, c := range delivered {
			if k[0] == 1 && c > 0 {
				n++
			}
		}
		return n == stream
	})

	mu.Lock()
	defer mu.Unlock()
	for k, c := range delivered {
		if c > 1 {
			t.Errorf("message (dst=%d, seq=%d) delivered %d times", k[0], k[1], c)
		}
	}
	for seq, sent := range okToSurvivor {
		if sent && delivered[[2]int{1, seq}] != 1 {
			t.Errorf("survivor-bound seq %d accepted but delivered %d times", seq, delivered[[2]int{1, seq}])
		}
	}
	for k := range delivered {
		if k[0] == victim && k[1] >= killAt {
			t.Errorf("victim received seq %d sent after the kill", k[1])
		}
	}
	if err := m.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// testPerLinkFIFO sends a numbered stream down every (src, dst) link
// from a single goroutine per source and asserts arrival order per
// link. Data-class messages are used: transports may only reorder
// control traffic, and only when configured to.
func testPerLinkFIFO(t *testing.T, factory Factory) {
	const places, perLink = 3, 100
	m := factory(t, places)
	type linkKey struct{ src, dst int }
	var mu sync.Mutex
	next := map[linkKey]int{}
	var got, want atomic.Int64
	err := m.Register(handlerID, func(src, dst int, payload any) {
		p := payload.(Payload)
		k := linkKey{src, dst}
		mu.Lock()
		if p.Seq != next[k] {
			t.Errorf("link %d->%d: got seq %d, want %d", src, dst, p.Seq, next[k])
		}
		next[k] = p.Seq + 1
		mu.Unlock()
		got.Add(1)
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for src := 0; src < places; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for seq := 0; seq < perLink; seq++ {
				for dst := 0; dst < places; dst++ {
					if err := m.Endpoint(src).Send(src, dst, handlerID, Payload{Seq: seq}, 16, x10rt.DataClass); err != nil {
						t.Errorf("Send %d->%d: %v", src, dst, err)
						return
					}
					want.Add(1)
				}
			}
		}(src)
	}
	wg.Wait()
	flushAll(m)
	await(t, "all deliveries", func() bool { return got.Load() == want.Load() })
	if err := m.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// testConcurrentSends hammers every link from several goroutines per
// source place and checks nothing is lost or duplicated.
func testConcurrentSends(t *testing.T, factory Factory) {
	const places, goroutines, perG = 3, 4, 50
	m := factory(t, places)
	var got atomic.Int64
	if err := m.Register(handlerID, func(src, dst int, payload any) { got.Add(1) }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for src := 0; src < places; src++ {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(src, g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					dst := (src + i + g) % places
					if err := m.Endpoint(src).Send(src, dst, handlerID, Payload{Seq: i}, 8, x10rt.ControlClass); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
			}(src, g)
		}
	}
	wg.Wait()
	flushAll(m)
	total := int64(places * goroutines * perG)
	await(t, "all deliveries", func() bool { return got.Load() >= total })
	if n := got.Load(); n != total {
		t.Errorf("delivered %d messages, want %d", n, total)
	}
	if err := m.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// testHandlerReentrancy bounces a message between two places from
// inside handlers: each delivery decrements a hop count and sends the
// payload onward. Handlers that Send must neither deadlock nor run on
// the sender's stack in a way that breaks the transport.
func testHandlerReentrancy(t *testing.T, factory Factory) {
	const hops = 40
	m := factory(t, 2)
	done := make(chan struct{})
	var once sync.Once
	err := m.Register(handlerID, func(src, dst int, payload any) {
		p := payload.(Payload)
		if p.Seq == 0 {
			once.Do(func() { close(done) })
			return
		}
		if err := m.Endpoint(dst).Send(dst, src, handlerID, Payload{Seq: p.Seq - 1}, 8, x10rt.ControlClass); err != nil {
			t.Errorf("re-entrant Send: %v", err)
			once.Do(func() { close(done) })
		}
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := m.Endpoint(0).Send(0, 1, handlerID, Payload{Seq: hops}, 8, x10rt.ControlClass); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Re-entrant sends can land in a batching queue with nothing else
	// arriving to push them out; keep nudging flushes while we wait.
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-done:
			if err := m.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			return
		case <-time.After(time.Millisecond):
			flushAll(m)
			if time.Now().After(deadline) {
				t.Fatal("ping-pong did not terminate")
			}
		}
	}
}

// testByteAccounting checks the accounting contract: per-class message
// and modeled-byte egress, summed over PlaceStats of every place's own
// endpoint, equals exactly what was sent; wire bytes are counted
// whenever traffic flowed; telemetry traffic stays invisible.
func testByteAccounting(t *testing.T, factory Factory) {
	const places = 3
	m := factory(t, places)
	var got atomic.Int64
	if err := m.Register(handlerID, func(src, dst int, payload any) { got.Add(1) }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := m.Register(x10rt.HandlerTelemetry, func(src, dst int, payload any) { got.Add(1) }); err != nil {
		t.Fatalf("Register telemetry: %v", err)
	}
	classes := []x10rt.Class{x10rt.DataClass, x10rt.ControlClass, x10rt.CollectiveClass}
	var wantMsgs, wantBytes [3]uint64
	var sent int64
	for src := 0; src < places; src++ {
		for dst := 0; dst < places; dst++ {
			for ci, class := range classes {
				n := 10 + 3*src + dst
				if err := m.Endpoint(src).Send(src, dst, handlerID, Payload{Seq: n}, n, class); err != nil {
					t.Fatalf("Send: %v", err)
				}
				wantMsgs[ci]++
				wantBytes[ci] += uint64(n)
				sent++
			}
			// Telemetry must not perturb any counter.
			if err := m.Endpoint(src).Send(src, dst, x10rt.HandlerTelemetry, Payload{}, 999, x10rt.ControlClass); err != nil {
				t.Fatalf("Send telemetry: %v", err)
			}
			sent++
		}
	}
	flushAll(m)
	await(t, "all deliveries", func() bool { return got.Load() == sent })

	var sum x10rt.Stats
	for p := 0; p < places; p++ {
		s := m.Endpoint(p).PlaceStats(p)
		for i := range sum.Messages {
			sum.Messages[i] += s.Messages[i]
			sum.Bytes[i] += s.Bytes[i]
		}
		sum.WireBytes += s.WireBytes
	}
	for i := range classes {
		if sum.Messages[i] != wantMsgs[i] {
			t.Errorf("class %v: %d messages accounted, want %d", classes[i], sum.Messages[i], wantMsgs[i])
		}
		if sum.Bytes[i] != wantBytes[i] {
			t.Errorf("class %v: %d bytes accounted, want %d", classes[i], sum.Bytes[i], wantBytes[i])
		}
	}
	if sum.WireBytes == 0 {
		t.Error("no wire bytes accounted for nonzero traffic")
	}
	// Wire-byte parity: the per-place egress attribution must re-sum to
	// the transport's own global wire counter. Both sides count egress
	// only (payload counters on serializing transports also cover
	// ingress, so they are checked per class above, not here), so the
	// equality holds on single-object transports — where Stats() is the
	// one global account — and on per-place-endpoint meshes, where the
	// global account is the sum over distinct endpoints.
	var globalWire uint64
	for _, ep := range endpoints(m) {
		globalWire += ep.Stats().WireBytes
	}
	if sum.WireBytes != globalWire {
		t.Errorf("wire-byte parity: Σ per-place WireBytes = %d, global Stats().WireBytes = %d",
			sum.WireBytes, globalWire)
	}
	if err := m.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// testCloseWhileSending closes the universe while senders are mid
// stream: in-flight Sends may succeed or fail but must not panic,
// post-Close Sends must error, and Close must be idempotent.
func testCloseWhileSending(t *testing.T, factory Factory) {
	const places = 2
	m := factory(t, places)
	if err := m.Register(handlerID, func(src, dst int, payload any) {}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for src := 0; src < places; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Any error is fine once shutdown races in; panics are not.
				_ = m.Endpoint(src).Send(src, (src+1)%places, handlerID, Payload{Seq: i}, 8, x10rt.DataClass)
			}
		}(src)
	}
	time.Sleep(2 * time.Millisecond)
	if err := m.Close(); err != nil && !errors.Is(err, x10rt.ErrClosed) {
		// Transports may surface connection teardown errors here; they
		// must still finish closing, which the post-conditions check.
		t.Logf("Close during traffic: %v", err)
	}
	close(stop)
	wg.Wait()
	for p := 0; p < places; p++ {
		if err := m.Endpoint(p).Send(p, (p+1)%places, handlerID, Payload{}, 8, x10rt.DataClass); err == nil {
			t.Errorf("endpoint %d: Send after Close succeeded", p)
		}
		if err := m.Endpoint(p).Close(); err != nil {
			t.Errorf("endpoint %d: repeated Close: %v", p, err)
		}
	}
}

// ---------------------------------------------------------------------
// One-sided battery: the frame-v5 lane that lands (arena, offset, raw
// bytes) without active-message dispatch.

// oneSidedHandler is the flag channel for the ordering tests.
const oneSidedHandler = handlerID + 7

// TestTransportOneSided runs the one-sided battery against the factory:
// puts land and stay ordered against active messages on the same link,
// gets round-trip through transient reply windows, the remote atomics
// accumulate exactly, and dead places fail fast with the typed error.
func TestTransportOneSided(t *testing.T, factory Factory) {
	t.Run("PutOrderedVsActiveMessages", func(t *testing.T) { testOneSidedPutOrdering(t, factory) })
	t.Run("GetRoundTrip", func(t *testing.T) { testOneSidedGet(t, factory) })
	t.Run("RemoteAtomics", func(t *testing.T) { testOneSidedAtomics(t, factory) })
	t.Run("XorBatchTypedAndWire", func(t *testing.T) { testOneSidedXorBatchForms(t, factory) })
	t.Run("DeathFailFast", func(t *testing.T) { testOneSidedDeath(t, factory) })
}

// oneSidedMesh builds the mesh and attaches one shared ArenaTable to
// every endpoint (the process-wide registry shape the core runtime
// uses).
func oneSidedMesh(t *testing.T, factory Factory, places int) (*Mesh, *x10rt.ArenaTable) {
	t.Helper()
	m := factory(t, places)
	at := x10rt.NewArenaTable()
	for _, ep := range endpoints(m) {
		ep.AttachArenas(at)
	}
	return m, at
}

// byteArena registers a []byte window (the direct-landing shape: wire
// transports read put payloads straight into it) for place p.
func byteArena(at *x10rt.ArenaTable, p int, id uint64, win []byte) {
	at.Register(p, id, &x10rt.Arena{
		Elems:    len(win),
		ElemSize: 1,
		Raw:      win,
		PutLocal: func(off int, local any) { copy(win[off:], local.([]byte)) },
		PutLE:    func(off, elems int, data []byte) { copy(win[off:off+elems], data) },
		ReadOp: func(off, elems int) (any, func([]byte) []byte) {
			snap := make([]byte, elems)
			copy(snap, win[off:off+elems])
			return snap, func(dst []byte) []byte { return append(dst, snap...) }
		},
	})
}

// u64Window is a []uint64 arena window whose landings all run under
// one mutex, the congruent heap's discipline: several transport readers
// may land in it at once, and the suite reads it through load while they
// do.
type u64Window struct {
	mu  sync.Mutex
	win []uint64
}

func (w *u64Window) load(i int) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.win[i]
}

func (w *u64Window) snapshot() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]uint64(nil), w.win...)
}

// u64Arena registers win as a []uint64 window for place p, with the
// read and update closures the suite drives.
func u64Arena(at *x10rt.ArenaTable, p int, id uint64, win []uint64) *u64Window {
	w := &u64Window{win: win}
	at.Register(p, id, &x10rt.Arena{
		Elems:    len(win),
		ElemSize: 8,
		ReadOp: func(off, elems int) (any, func([]byte) []byte) {
			w.mu.Lock()
			snap := append([]uint64(nil), win[off:off+elems]...)
			w.mu.Unlock()
			return snap, func(dst []byte) []byte {
				for _, v := range snap {
					dst = appendU64(dst, v)
				}
				return dst
			}
		},
		Xor: func(idx int, val uint64) {
			w.mu.Lock()
			win[idx] ^= val
			w.mu.Unlock()
		},
		Add: func(idx int, val uint64) {
			w.mu.Lock()
			win[idx] += val
			w.mu.Unlock()
		},
		XorBatch: func(recs []x10rt.XorUpdate) error {
			w.mu.Lock()
			defer w.mu.Unlock()
			for _, u := range recs {
				if uint(u.Idx) >= uint(len(win)) {
					return fmt.Errorf("xorbatch index %d outside window", u.Idx)
				}
				win[u.Idx] ^= u.Val
			}
			return nil
		},
	})
	return w
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// testOneSidedPutOrdering is the MP litmus shape with a one-sided data
// leg: put(i) then flag(i) as an active message on the same link. The
// flag handler (running on the destination's dispatch path, ordered
// after the landing) must never observe data older than its round.
func testOneSidedPutOrdering(t *testing.T, factory Factory) {
	const places, rounds = 2, 200
	m, at := oneSidedMesh(t, factory, places)
	win := make([]byte, 8)
	byteArena(at, 1, 1, win)

	var lastSeen atomic.Int64
	lastSeen.Store(-1)
	var stale atomic.Int64
	var got atomic.Int64
	if err := m.Register(oneSidedHandler, func(src, dst int, payload any) {
		round := int64(payload.(Payload).Seq)
		data := int64(leU64(win)) // same dispatch path as the landing: ordered
		if data < round {
			stale.Add(1)
		}
		lastSeen.Store(round)
		got.Add(1)
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}

	src := m.Endpoint(0)
	for i := 0; i < rounds; i++ {
		data := appendU64(nil, uint64(i))
		op := &x10rt.OneSidedOp{
			Kind: x10rt.OneSidedPut, Arena: 1, Off: 0, Elems: 8,
			Data: data, Local: data, Bytes: 8,
		}
		if err := src.SendOneSided(0, 1, op); err != nil {
			t.Fatalf("SendOneSided(round %d): %v", i, err)
		}
		if err := src.Send(0, 1, oneSidedHandler, Payload{Seq: i}, 8, x10rt.DataClass); err != nil {
			t.Fatalf("Send(flag %d): %v", i, err)
		}
	}
	flushAll(m)
	await(t, "all flags", func() bool { flushAll(m); return got.Load() == rounds })
	if n := stale.Load(); n != 0 {
		t.Errorf("%d flags observed data older than their round (one-sided put overtaken by AM)", n)
	}
}

// testOneSidedGet drives a get through a transient reply window and
// checks the requested slice arrives value-for-value.
func testOneSidedGet(t *testing.T, factory Factory) {
	const places = 2
	m, at := oneSidedMesh(t, factory, places)
	src := make([]uint64, 64)
	for i := range src {
		src[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	u64Arena(at, 1, 1, src)

	dst := make([]uint64, 16)
	reply := at.Reserve()
	// Transient reply window: unregisters once the response put lands.
	at.Register(0, reply, &x10rt.Arena{
		Elems: len(dst), ElemSize: 8, Transient: true,
		PutLocal: func(off int, local any) {
			for i, v := range local.([]uint64) {
				atomic.StoreUint64(&dst[off+i], v)
			}
		},
		PutLE: func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				atomic.StoreUint64(&dst[off+i], leU64(data[i*8:]))
			}
		},
	})

	if err := m.Endpoint(0).SendOneSided(0, 1, &x10rt.OneSidedOp{
		Kind: x10rt.OneSidedGet, Arena: 1, Off: 8, Elems: 16, ReplyArena: reply,
	}); err != nil {
		t.Fatalf("SendOneSided(get): %v", err)
	}
	flushAll(m)
	await(t, "get reply", func() bool {
		flushAll(m)
		return atomic.LoadUint64(&dst[15]) == src[8+15]
	})
	for i := range dst {
		if v := atomic.LoadUint64(&dst[i]); v != src[8+i] {
			t.Errorf("dst[%d] = %#x, want %#x", i, v, src[8+i])
		}
	}
}

// testOneSidedAtomics: adds and paired xors from two concurrent senders
// must accumulate exactly — the landings are read-modify-write atomic
// even when transport readers run in parallel.
func testOneSidedAtomics(t *testing.T, factory Factory) {
	const places, perSender = 3, 100
	m, at := oneSidedMesh(t, factory, places)
	w := u64Arena(at, 1, 1, make([]uint64, 4))
	// A flag behind each sender's last op marks its landings complete.
	var flags atomic.Int64
	if err := m.Register(oneSidedHandler, func(src, dst int, payload any) { flags.Add(1) }); err != nil {
		t.Fatalf("Register: %v", err)
	}

	var wg sync.WaitGroup
	for _, sender := range []int{0, 2} {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			snd := m.Endpoint(s)
			for i := 0; i < perSender; i++ {
				if err := snd.SendOneSided(s, 1, &x10rt.OneSidedOp{
					Kind: x10rt.OneSidedAdd, Arena: 1, Off: 0, Val: 1,
				}); err != nil {
					t.Errorf("add from %d: %v", s, err)
					return
				}
				// Paired xor of the same value: net zero once even.
				if err := snd.SendOneSided(s, 1, &x10rt.OneSidedOp{
					Kind: x10rt.OneSidedXor, Arena: 1, Off: 1, Val: 0xdeadbeef,
				}); err != nil {
					t.Errorf("xor from %d: %v", s, err)
					return
				}
			}
			// One batch: toggle bit i of word 2, each index twice.
			var recs []byte
			for i := 0; i < 32; i++ {
				for k := 0; k < 2; k++ {
					recs = append(recs, byte(2), 0, 0, 0)
					recs = appendU64(recs, uint64(1)<<i)
				}
			}
			if err := snd.SendOneSided(s, 1, &x10rt.OneSidedOp{
				Kind: x10rt.OneSidedXorBatch, Arena: 1, Elems: 64,
				Data: recs, Bytes: len(recs),
			}); err != nil {
				t.Errorf("xorbatch from %d: %v", s, err)
			}
			if err := m.Endpoint(s).Send(s, 1, oneSidedHandler, Payload{}, 8, x10rt.DataClass); err != nil {
				t.Errorf("flag from %d: %v", s, err)
			}
		}(sender)
	}
	wg.Wait()
	flushAll(m)
	await(t, "flags behind every sender's ops", func() bool {
		flushAll(m)
		return flags.Load() == 2
	})
	if v := w.load(0); v != 2*perSender {
		t.Errorf("adds accumulated %d, want %d", v, 2*perSender)
	}
	if v := w.load(1); v != 0 {
		t.Errorf("paired xors left %#x, want 0", v)
	}
	if v := w.load(2); v != 0 {
		t.Errorf("xorbatch double-toggle left %#x, want 0", v)
	}
}

// testOneSidedXorBatchForms sends the same pooled XorBatch ops over a
// self link, where every transport lands them typed (TCP-to-self
// included), and over a remote link, where chan lands them typed and
// TCP as 12-byte wire records that the receiver's arena table decodes
// back into typed records. Both windows must end up equal to the
// table computed locally. A flag message behind each link's last batch
// marks the landings complete.
func testOneSidedXorBatchForms(t *testing.T, factory Factory) {
	const places, elems, batches, perBatch = 2, 512, 16, 256
	m, at := oneSidedMesh(t, factory, places)
	self := u64Arena(at, 1, 1, make([]uint64, elems))
	remote := u64Arena(at, 1, 2, make([]uint64, elems))
	var flags atomic.Int64
	if err := m.Register(oneSidedHandler, func(src, dst int, payload any) { flags.Add(1) }); err != nil {
		t.Fatalf("Register: %v", err)
	}

	legs := []struct {
		src   int
		arena uint64
	}{{1, 1}, {0, 2}}
	want := make([]uint64, elems)
	ups := make([]x10rt.XorUpdate, perBatch)
	x := uint64(0x9e3779b97f4a7c15)
	for b := 0; b < batches; b++ {
		for i := range ups {
			x = x*6364136223846793005 + 1442695040888963407
			ups[i] = x10rt.XorUpdate{Idx: int(x>>33) % elems, Val: x}
			want[ups[i].Idx] ^= x
		}
		for _, leg := range legs {
			op, err := x10rt.NewXorBatchOp(leg.arena, ups)
			if err != nil {
				t.Fatalf("NewXorBatchOp: %v", err)
			}
			if err := m.Endpoint(leg.src).SendOneSided(leg.src, 1, op); err != nil {
				t.Fatalf("SendOneSided(%d->1, batch %d): %v", leg.src, b, err)
			}
		}
	}
	for _, leg := range legs {
		if err := m.Endpoint(leg.src).Send(leg.src, 1, oneSidedHandler, Payload{}, 8, x10rt.DataClass); err != nil {
			t.Fatalf("Send(flag from %d): %v", leg.src, err)
		}
	}
	flushAll(m)
	await(t, "flags behind the batches", func() bool { flushAll(m); return flags.Load() == int64(len(legs)) })
	if got := self.snapshot(); !slices.Equal(got, want) {
		t.Errorf("self-landed (typed) table differs from the local table")
	}
	if got := remote.snapshot(); !slices.Equal(got, want) {
		t.Errorf("remote-landed table differs from the local table")
	}
}

// testOneSidedDeath: after KillPlace, one-sided ops touching the victim
// fail fast with the typed error and survivor links keep landing.
func testOneSidedDeath(t *testing.T, factory Factory) {
	const places, victim = 3, 1
	m, at := oneSidedMesh(t, factory, places)
	for p := 0; p < places; p++ {
		u64Arena(at, p, 1, make([]uint64, 4))
	}
	sur := u64Arena(at, 2, 2, make([]uint64, 4))

	killAll(t, m, victim)

	snd0 := m.Endpoint(0)
	err := snd0.SendOneSided(0, victim, &x10rt.OneSidedOp{
		Kind: x10rt.OneSidedAdd, Arena: 1, Off: 0, Val: 1,
	})
	var pde *x10rt.PlaceDeadError
	if !errors.As(err, &pde) || pde.Place != victim {
		t.Errorf("op to victim: err = %v, want *PlaceDeadError{%d}", err, victim)
	}
	if !errors.Is(err, x10rt.ErrPlaceDead) {
		t.Errorf("op to victim does not unwrap to ErrPlaceDead: %v", err)
	}
	if err := m.Endpoint(victim).SendOneSided(victim, 2, &x10rt.OneSidedOp{
		Kind: x10rt.OneSidedAdd, Arena: 2, Off: 0, Val: 1,
	}); !errors.Is(err, x10rt.ErrPlaceDead) {
		t.Errorf("op from victim: err = %v, want ErrPlaceDead", err)
	}
	if err := snd0.SendOneSided(0, 2, &x10rt.OneSidedOp{
		Kind: x10rt.OneSidedAdd, Arena: 2, Off: 0, Val: 7,
	}); err != nil {
		t.Fatalf("survivor op: %v", err)
	}
	flushAll(m)
	await(t, "survivor landing", func() bool {
		flushAll(m)
		return sur.load(0) == 7
	})
}
