package x10rt

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"apgas/internal/obs"
)

// TCPOptions configures one endpoint of a TCPTransport mesh.
type TCPOptions struct {
	// Place is this endpoint's place index.
	Place int
	// Addrs lists the listen address of every place, indexed by place.
	// Addrs[Place] is the address this endpoint listens on.
	Addrs []string
}

// TCPTransport is a socket-based Transport standing in for X10RT's
// PAMI/sockets backends. Each place runs one endpoint; endpoints connect
// lazily on first send. Active messages travel as v4 codec frames
// (codecframe.go) and one-sided ops as v5 frames (onesided.go); no other
// frame version is written or accepted. Applications must register
// concrete payload types with RegisterWireType (or RegisterWireCodec)
// before sending.
//
// Unlike ChanTransport, a TCPTransport value represents a single place; a
// full mesh consists of one TCPTransport per place (usually one per
// process). Delivery is FIFO per (src, dst) link, as TCP guarantees.
type TCPTransport struct {
	opts     TCPOptions
	handlers *handlerTable
	listener net.Listener
	ctrs     counters
	egress   counters // messages sent by this endpoint only
	deaths   deathState

	mu     sync.Mutex
	conns  map[int]*tcpConn // outbound, keyed by dst
	closed bool

	// tr, when attached, stamps outgoing frames with this place's hybrid
	// logical clock (codecFlagHLC) and folds inbound stamps back in —
	// but only while the tracer has distributed tracing enabled.
	tr atomic.Pointer[obs.Tracer]

	// lg, when attached, attributes every message to its handler and
	// link, with encode/decode timings (see WireLedger).
	lg atomic.Pointer[WireLedger]

	// writeq gauges the endpoint's write backpressure: the number of
	// goroutines queued on (or holding) an outbound connection's write
	// lock. A persistently high value means the wire, not the
	// application, is the bottleneck — the ledger's per-link and
	// per-handler accounts then name the traffic responsible.
	writeq obs.Gauge

	// arenas, when attached, lets the endpoint land one-sided frames
	// (v5) directly in registered memory windows.
	arenas atomic.Pointer[ArenaTable]

	loop     chan wireMsg // self-sends, kept FIFO
	wg       sync.WaitGroup
	loopOnce sync.Once
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
	// tt is the outbound type table. Guarded by mu: ids must be
	// assigned in the exact order frames hit the wire.
	tt typeTableSender
}

// wireMsg is one decoded active message, as a v4 record carries it
// plus the frame's source place.
type wireMsg struct {
	Src     int
	ID      HandlerID
	Class   Class
	Bytes   int
	Payload any
}

// RegisterWireType registers a concrete payload type for the TCP wire.
// A flat struct (the shapes RegisterBinaryStruct accepts) gets a binary
// codec and travels under a type-table ref; any other type is
// registered with gob and rides the v4 gob fallback (typeRef 0), which
// pays a gob encoder per message. It must be called (with identical
// types) in every process of the mesh before any Send carrying that
// type.
func RegisterWireType(v any) {
	if RegisterBinaryStruct(v) != nil {
		gob.Register(v)
	}
}

// NewTCPTransport creates a TCP endpoint and starts its listener and
// dispatcher. The other endpoints need not be up yet; connections are
// established lazily when sending.
func NewTCPTransport(opts TCPOptions) (*TCPTransport, error) {
	if opts.Place < 0 || opts.Place >= len(opts.Addrs) {
		return nil, fmt.Errorf("%w: place=%d addrs=%d", ErrBadPlace, opts.Place, len(opts.Addrs))
	}
	ln, err := net.Listen("tcp", opts.Addrs[opts.Place])
	if err != nil {
		return nil, fmt.Errorf("x10rt: listen %s: %w", opts.Addrs[opts.Place], err)
	}
	return newTCPWithListener(opts, ln), nil
}

// NewLocalTCPMesh creates a fully wired n-place mesh on loopback with
// system-assigned ports. It is intended for tests and single-machine
// multi-endpoint experiments.
func NewLocalTCPMesh(n int) ([]*TCPTransport, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, fmt.Errorf("x10rt: mesh listen: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	mesh := make([]*TCPTransport, n)
	for i := 0; i < n; i++ {
		mesh[i] = newTCPWithListener(TCPOptions{Place: i, Addrs: addrs}, listeners[i])
	}
	return mesh, nil
}

// Deprecated: every TCP mesh speaks the binary codec; use NewLocalTCPMesh.
func NewLocalCodecTCPMesh(n int) ([]*TCPTransport, error) { return NewLocalTCPMesh(n) }

func newTCPWithListener(opts TCPOptions, ln net.Listener) *TCPTransport {
	t := &TCPTransport{
		opts:     opts,
		handlers: newHandlerTable(),
		listener: ln,
		conns:    make(map[int]*tcpConn),
		loop:     make(chan wireMsg, 256),
	}
	t.wg.Add(2)
	go t.accept()
	go t.selfDispatch()
	return t
}

// Addr returns the address this endpoint is actually listening on (useful
// when the configured address had port 0).
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// NumPlaces implements Transport.
func (t *TCPTransport) NumPlaces() int { return len(t.opts.Addrs) }

// Register implements Transport.
func (t *TCPTransport) Register(id HandlerID, h Handler) error {
	return t.handlers.register(id, h)
}

// Send implements Transport. src must equal the endpoint's own place.
func (t *TCPTransport) Send(src, dst int, id HandlerID, payload any, bytes int, class Class) error {
	if src != t.opts.Place {
		return fmt.Errorf("%w: send from %d on endpoint %d", ErrBadPlace, src, t.opts.Place)
	}
	if dst < 0 || dst >= len(t.opts.Addrs) {
		return fmt.Errorf("%w: dst=%d", ErrBadPlace, dst)
	}
	if p := t.deaths.deadEnd(src, dst); p >= 0 {
		return &PlaceDeadError{Place: p}
	}
	if dst == t.opts.Place {
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return ErrClosed
		}
		t.loop <- wireMsg{Src: src, ID: id, Class: class, Bytes: bytes, Payload: payload}
		if countable(id) {
			t.ctrs.add(class, bytes)
			t.egress.add(class, bytes)
			// Loopback has no wire; the modeled size stands in so
			// WireBytes remains a complete egress account.
			t.ctrs.addWire(bytes)
			t.egress.addWire(bytes)
			if lg := t.lg.Load(); lg != nil {
				lg.RecordSend(src, dst, id, bytes)
				lg.RecordWire(src, dst, bytes)
			}
		}
		return nil
	}
	one := [1]BatchMsg{{ID: id, Payload: payload, Bytes: bytes, Class: class}}
	wireLen, err := t.writeCodecBatch(src, dst, one[:], 0)
	if err != nil {
		return err
	}
	if countable(id) {
		t.ctrs.add(class, bytes)
		t.egress.add(class, bytes)
		t.ctrs.addWire(wireLen)
		t.egress.addWire(wireLen)
		if lg := t.lg.Load(); lg != nil {
			lg.RecordSend(src, dst, id, bytes)
			lg.RecordWire(src, dst, wireLen)
		}
	}
	return nil
}

// SendBatch implements BatchSender: msgs travel as one v4 frame — a
// single type-table section, a single write syscall, and at most one
// compression pass — instead of len(msgs) individual frames. Messages
// are delivered at dst in slice order. Wire bytes are counted once for
// the whole frame; the per-class counters still see every message.
// Batches are assembled by the BatchingTransport, which never batches
// telemetry traffic, so the frame as a whole is countable.
func (t *TCPTransport) SendBatch(src, dst int, msgs []BatchMsg, compressMin int) error {
	if len(msgs) == 0 {
		return nil
	}
	if src != t.opts.Place {
		return fmt.Errorf("%w: send from %d on endpoint %d", ErrBadPlace, src, t.opts.Place)
	}
	if dst < 0 || dst >= len(t.opts.Addrs) {
		return fmt.Errorf("%w: dst=%d", ErrBadPlace, dst)
	}
	if p := t.deaths.deadEnd(src, dst); p >= 0 {
		return &PlaceDeadError{Place: p}
	}
	if dst == t.opts.Place {
		for i := range msgs {
			m := &msgs[i]
			if err := t.Send(src, dst, m.ID, m.Payload, m.Bytes, m.Class); err != nil {
				return err
			}
		}
		return nil
	}
	wireLen, err := t.writeCodecBatch(src, dst, msgs, compressMin)
	if err != nil {
		return err
	}
	// Sum per class first: one atomic add per class and counter for the
	// frame, not per message — the reader goroutine updates ctrs too.
	var n, b [numClasses]uint64
	lg := t.lg.Load()
	for i := range msgs {
		if m := &msgs[i]; countable(m.ID) {
			n[m.Class]++
			b[m.Class] += uint64(m.Bytes)
			if lg != nil {
				lg.RecordSend(src, dst, m.ID, m.Bytes)
			}
		}
	}
	for c := range n {
		if n[c] > 0 {
			t.ctrs.addN(Class(c), n[c], b[c])
			t.egress.addN(Class(c), n[c], b[c])
		}
	}
	t.ctrs.addWire(wireLen)
	t.egress.addWire(wireLen)
	lg.RecordWire(src, dst, wireLen)
	return nil
}

// writeCodecBatch encodes msgs as one v4 frame and writes it with
// a single scatter-gather syscall. Encoding runs under the connection's
// write lock: type-table ids must be assigned in the exact order frames
// hit the wire or the receiver would bind them to the wrong codecs. Any
// error after encoding drops the connection — its type table may now be
// ahead of what the peer saw, and a fresh connection restarts the
// handshake from scratch.
func (t *TCPTransport) writeCodecBatch(src, dst int, msgs []BatchMsg, compressMin int) (int, error) {
	conn, err := t.connTo(dst)
	if err != nil {
		return 0, err
	}
	lg := t.lg.Load()
	var hlc uint64
	hlcOn := false
	if tr := t.tr.Load(); tr != nil && tr.DistEnabled() {
		hlc, hlcOn = tr.HLCTick(src), true
	}
	fp := getFrameBuf()
	defer putFrameBuf(fp)
	t.writeq.Add(1)
	conn.mu.Lock()
	segs, wireLen, err := appendCodecBatchFrame(fp, src, dst, msgs, compressMin, hlc, hlcOn, &conn.tt, lg)
	if err == nil {
		_, err = segs.WriteTo(conn.c)
	}
	conn.mu.Unlock()
	t.writeq.Add(-1)
	if err != nil {
		t.dropConn(dst, conn)
		return 0, fmt.Errorf("x10rt: codec send to %d: %w", dst, err)
	}
	return wireLen, nil
}

// dropConn closes and forgets an outbound connection whose stream state
// can no longer be trusted (failed write, or a frame that died after
// mutating the type table). The next send to dst redials.
func (t *TCPTransport) dropConn(dst int, conn *tcpConn) {
	t.mu.Lock()
	if t.conns[dst] == conn {
		delete(t.conns, dst)
	}
	t.mu.Unlock()
	conn.c.Close()
}

func (t *TCPTransport) connTo(dst int) (*tcpConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if c, ok := t.conns[dst]; ok {
		return c, nil
	}
	nc, err := net.Dial("tcp", t.opts.Addrs[dst])
	if err != nil {
		return nil, fmt.Errorf("x10rt: dial place %d (%s): %w", dst, t.opts.Addrs[dst], err)
	}
	c := &tcpConn{c: nc}
	t.conns[dst] = c
	return c, nil
}

func (t *TCPTransport) accept() {
	defer t.wg.Done()
	for {
		nc, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.read(nc)
	}
}

// read decodes and dispatches messages from one inbound connection.
// Running handlers on the reader goroutine preserves per-link FIFO order
// — for batch frames, the messages of a batch dispatch in batch order
// before the next frame is read. A frame that fails validation or
// decoding terminates the connection: a desynchronized or hostile
// stream cannot poison later messages.
func (t *TCPTransport) read(nc net.Conn) {
	defer t.wg.Done()
	defer nc.Close()
	br := bufio.NewReader(nc)
	// ttr is this connection's receive-side type table, grown by the
	// new-types sections of inbound v4 frames.
	ttr := &typeTableReceiver{}
	for {
		// v5 one-sided frames are parsed streaming: their data section
		// is read directly into the target arena window, never into an
		// intermediate payload slice.
		version, n, err := readFrameHeader(br)
		if err != nil {
			return
		}
		if version == frameVersionOneSided {
			if err := t.readOneSided(br, n); err != nil {
				return
			}
			continue
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		msgs, hlc, err := decodeCodecBatchPayloadLG(payload, ttr, t.lg.Load(), t.opts.Place)
		if err != nil {
			return
		}
		if hlc != 0 {
			if tr := t.tr.Load(); tr != nil {
				tr.HLCObserve(t.opts.Place, hlc)
			}
		}
		for i := range msgs {
			t.dispatch(&msgs[i])
		}
	}
}

// readOneSided streams one v5 frame off the connection: the op header
// is parsed field by field, then the data section is read exactly once
// — straight into the target arena's byte window when one is offered
// (true zero copy: kernel buffer to congruent fragment), a pooled
// staging buffer otherwise. Landing runs on the reader goroutine, so
// per-link ordering with active messages is exactly frame order.
func (t *TCPTransport) readOneSided(br *bufio.Reader, payloadLen int) error {
	cr := &countingReader{r: br}
	src, op, dataLen, err := parseOneSidedHeader(cr, payloadLen)
	if err != nil {
		return err
	}
	at := t.arenas.Load()
	if at == nil {
		return fmt.Errorf("x10rt: one-sided frame with no arena table attached")
	}
	alive := !t.deaths.isDead(src) && !t.deaths.isDead(t.opts.Place)
	if dataLen > 0 {
		var win []byte
		if alive {
			if win, err = at.RawWindow(t.opts.Place, op); err != nil {
				return err
			}
		}
		if len(win) == dataLen && win != nil {
			if _, err := io.ReadFull(cr, win); err != nil {
				return err
			}
			op.Applied = true
		} else {
			fp := getFrameBuf()
			defer putFrameBuf(fp)
			buf := *fp
			if cap(buf) < dataLen {
				buf = make([]byte, dataLen)
				*fp = buf[:0]
			}
			buf = buf[:dataLen]
			if _, err := io.ReadFull(cr, buf); err != nil {
				return err
			}
			op.Data = buf
		}
	}
	if !alive {
		return nil // frames in flight across a killed link are discarded
	}
	t.ctrs.add(DataClass, op.Bytes)
	if lg := t.lg.Load(); lg != nil {
		// The lane has no deserialization: landing is the memcpy itself.
		lg.RecordRecv(t.opts.Place, HandlerOneSided, 0)
	}
	err = at.Land(src, t.opts.Place, op, func(rep *OneSidedOp) error {
		return t.SendOneSided(t.opts.Place, src, rep)
	})
	var pde *PlaceDeadError
	if errors.As(err, &pde) {
		// A get whose requester died before the reply is normal
		// attrition, not stream corruption: keep the connection.
		return nil
	}
	return err
}

// SendOneSided implements Transport: op travels as one v5 frame
// whose data section is scatter-gathered straight from the caller's
// buffer (writev) — no staging copy, no handler dispatch at the far
// end. Typed payloads (op.Raw) are encoded here, the only place a wire
// exists; a self-directed op lands typed without encoding. Ordering
// with Send on the same link is preserved: both serialize through the
// same connection write lock.
func (t *TCPTransport) SendOneSided(src, dst int, op *OneSidedOp) error {
	if src != t.opts.Place {
		return fmt.Errorf("%w: send from %d on endpoint %d", ErrBadPlace, src, t.opts.Place)
	}
	if dst < 0 || dst >= len(t.opts.Addrs) {
		return fmt.Errorf("%w: dst=%d", ErrBadPlace, dst)
	}
	if p := t.deaths.deadEnd(src, dst); p >= 0 {
		return &PlaceDeadError{Place: p}
	}
	lg := t.lg.Load()
	if dst == t.opts.Place {
		at := t.arenas.Load()
		if at == nil {
			return fmt.Errorf("x10rt: one-sided send with no arena table attached")
		}
		wire := OneSidedWireBytes(src, op)
		t.ctrs.add(DataClass, op.Bytes)
		t.egress.add(DataClass, op.Bytes)
		t.ctrs.addWire(wire)
		t.egress.addWire(wire)
		if lg != nil {
			lg.RecordSend(src, dst, HandlerOneSided, op.Bytes)
			lg.RecordWire(src, dst, wire)
			lg.RecordRecv(dst, HandlerOneSided, 0)
		}
		// Landing synchronously is safe here: one-sided ops never run
		// user handlers, so Send's reentrancy rule does not apply.
		err := at.Land(src, dst, op, func(rep *OneSidedOp) error {
			return t.SendOneSided(dst, src, rep)
		})
		op.release()
		return err
	}
	// Past this point only the wire form travels: a pooled XorBatch op
	// goes back to its pool once its frame is written.
	defer op.release()
	var data []byte
	if op.Data != nil {
		data = op.Data
	} else if dl := oneSidedDataLen(op); dl > 0 && op.Raw != nil {
		dp := getFrameBuf()
		defer putFrameBuf(dp)
		data = op.Raw((*dp)[:0])
		*dp = data[:0]
	}
	fp := getFrameBuf()
	defer putFrameBuf(fp)
	var t0 int64
	if lg != nil {
		t0 = wireNow()
	}
	head, err := appendOneSidedHeader((*fp)[:0], src, op, len(data))
	if err != nil {
		return err
	}
	*fp = head[:0]
	if lg != nil {
		lg.RecordEncode(src, HandlerOneSided, wireNow()-t0)
	}
	conn, err := t.connTo(dst)
	if err != nil {
		return err
	}
	frameLen := len(head) + len(data)
	bufs := net.Buffers{head}
	if len(data) > 0 {
		bufs = append(bufs, data)
	}
	t.writeq.Add(1)
	conn.mu.Lock()
	_, err = bufs.WriteTo(conn.c)
	conn.mu.Unlock()
	t.writeq.Add(-1)
	if err != nil {
		t.dropConn(dst, conn)
		return fmt.Errorf("x10rt: one-sided send to %d: %w", dst, err)
	}
	t.ctrs.add(DataClass, op.Bytes)
	t.egress.add(DataClass, op.Bytes)
	t.ctrs.addWire(frameLen)
	t.egress.addWire(frameLen)
	if lg != nil {
		lg.RecordSend(src, dst, HandlerOneSided, op.Bytes)
		lg.RecordWire(src, dst, frameLen)
	}
	return nil
}

// AttachArenas implements Transport.
func (t *TCPTransport) AttachArenas(at *ArenaTable) { t.arenas.Store(at) }

// dispatch counts and runs one inbound message on the caller's
// (reader) goroutine. Receivers do not touch the wire counter: wire
// bytes are attributed to the sender, like all egress accounting.
func (t *TCPTransport) dispatch(m *wireMsg) {
	if t.deaths.isDead(m.Src) || t.deaths.isDead(t.opts.Place) {
		return // frames in flight across a killed link are discarded
	}
	if countable(m.ID) {
		t.ctrs.add(m.Class, m.Bytes)
	}
	if h, ok := t.handlers.lookup(m.ID); ok {
		h(m.Src, t.opts.Place, m.Payload)
	}
}

func (t *TCPTransport) selfDispatch() {
	defer t.wg.Done()
	for m := range t.loop {
		if t.deaths.isDead(t.opts.Place) {
			continue
		}
		if h, ok := t.handlers.lookup(m.ID); ok {
			if lg := t.lg.Load(); lg != nil {
				// Loopback delivery has no deserialization cost.
				lg.RecordRecv(t.opts.Place, m.ID, 0)
			}
			h(m.Src, t.opts.Place, m.Payload)
		}
	}
}

// KillPlace implements Transport for one endpoint of a mesh: it marks
// p dead in this endpoint's view. Sends to or from p fail fast with a
// *PlaceDeadError, inbound frames from p (and all inbound traffic when
// p is this endpoint itself) are discarded, and — when this endpoint
// survives — every NotifyDeath callback fires exactly once, with this
// endpoint's place as the observer. Mesh-wide death is achieved by
// calling KillPlace(p) on every endpoint, as a failure detector would.
func (t *TCPTransport) KillPlace(p int) error {
	if p < 0 || p >= len(t.opts.Addrs) {
		return fmt.Errorf("%w: p=%d n=%d", ErrBadPlace, p, len(t.opts.Addrs))
	}
	if !t.deaths.kill(p) {
		return nil // already dead
	}
	if p != t.opts.Place {
		// Drop the outbound connection so the peer's reader sees the
		// link sever too.
		t.mu.Lock()
		c := t.conns[p]
		delete(t.conns, p)
		t.mu.Unlock()
		if c != nil {
			c.c.Close()
		}
	}
	if p != t.opts.Place && !t.deaths.isDead(t.opts.Place) {
		t.deaths.notifyOne(p, t.opts.Place)
	}
	return nil
}

// PlaceDead implements Transport.
func (t *TCPTransport) PlaceDead(p int) bool { return t.deaths.isDead(p) }

// NotifyDeath implements Transport.
func (t *TCPTransport) NotifyDeath(fn func(dead, observer int)) { t.deaths.subscribe(fn) }

// Flush implements Transport; every Send is written before it returns.
func (t *TCPTransport) Flush(int) error { return nil }

// Stats implements Transport. Counters cover messages sent from and
// received at this endpoint (self-sends are counted once).
func (t *TCPTransport) Stats() Stats { return t.ctrs.snapshot() }

// AttachMetrics implements Transport: the traffic counters become
// visible in r under x10rt.msgs.<class> / x10rt.bytes.<class>, plus
// the endpoint's write-queue backpressure gauge.
func (t *TCPTransport) AttachMetrics(r *obs.Registry) {
	t.ctrs.attach(r)
	r.RegisterGauge("x10rt.tcp.writeq", &t.writeq)
}

// AttachTracer wires a tracer into the endpoint so v4 frames carry HLC
// stamps while distributed tracing is enabled.
// Safe to call at any time; nil detaches.
func (t *TCPTransport) AttachTracer(tr *obs.Tracer) { t.tr.Store(tr) }

// PlaceStats implements Transport. A TCP endpoint only carries
// its own place's egress; any other place reports zero here (its own
// endpoint, in its own process, holds its counters).
func (t *TCPTransport) PlaceStats(p int) Stats {
	if p != t.opts.Place {
		return Stats{}
	}
	return t.egress.snapshot()
}

// AttachPlaceMetrics implements Transport.
func (t *TCPTransport) AttachPlaceMetrics(p int, r *obs.Registry) {
	if p == t.opts.Place {
		t.egress.attach(r)
		r.RegisterGauge("x10rt.tcp.writeq", &t.writeq)
	}
}

// AttachWireLedger implements Transport: sends, receives, and
// serialization timings at this endpoint are attributed by
// (handler, link). Safe to call at any time; nil detaches.
func (t *TCPTransport) AttachWireLedger(lg *WireLedger) { t.lg.Store(lg) }

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = make(map[int]*tcpConn)
	t.mu.Unlock()
	t.listener.Close()
	for _, c := range conns {
		c.c.Close()
	}
	t.loopOnce.Do(func() { close(t.loop) })
	return nil
}
