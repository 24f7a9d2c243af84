package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"apgas/internal/obs"
	"apgas/internal/x10rt"
)

// wireCtl is phase (a)'s 8-byte control struct, carried by the codec
// lane (RegisterBinaryStruct).
type wireCtl struct {
	Seq uint32
	Val uint32
}

// key folds a control struct into the order-independent delivery sum.
func (c wireCtl) key() uint64 { return uint64(c.Seq)<<32 | uint64(c.Val) }

// ctlStart and nextCtl generate sender p's control structs from the seed.
func ctlStart(seed uint64, p int) uint64 { return seed + uint64(p)<<40 }

func nextCtl(x *uint64, i int) wireCtl {
	*x = splitmix(*x)
	return wireCtl{Seq: uint32(i), Val: uint32(*x)}
}

// The wire workload's handlers, clear of the runtime's reserved range.
const (
	hCtl  = x10rt.UserHandlerBase + 40
	hBulk = hCtl + 1
	hPing = hCtl + 2
	hPong = hCtl + 3
)

// wireTimeout bounds every wait for deliveries.
const wireTimeout = 30 * time.Second

// wireSize sizes one repetition's three phases.
type wireSize struct {
	ctlPerSender int // (a) control structs sent by each of the 2 endpoints
	frames       int // (b) frames of wireFrameBytes sent 0 → 1
	pings        int // (c) round trips, one outstanding
}

const wireFrameBytes = 256 << 10

// wireFull is the wire workload; wireLadder is its reduced shape for
// the layer probes of workloads that never serialize.
var (
	wireFull   = wireSize{ctlPerSender: 100_000, frames: 400, pings: 200}
	wireLadder = wireSize{ctlPerSender: 20_000, frames: 40, pings: 50}
)

var (
	registerOnce sync.Once
	registerErr  error
)

func registerWireTypes() error {
	registerOnce.Do(func() { registerErr = x10rt.RegisterBinaryStruct(wireCtl{}) })
	return registerErr
}

// wireWorkload drives a 2-endpoint loopback codec TCP mesh, each
// endpoint wrapped in a BatchingTransport with default options.
type wireWorkload struct {
	size   wireSize
	seed   uint64
	frames [][]byte // distinct bulk frames, sent in rotation
	sums   []uint64 // their checksums
}

func newWire(seed int64) (workload, error) { return newWireSized(seed, wireFull) }

func newWireSized(seed int64, size wireSize) (*wireWorkload, error) {
	w := &wireWorkload{size: size, seed: uint64(seed)}
	x := uint64(seed)
	for i := 0; i < 4; i++ {
		f := make([]byte, wireFrameBytes)
		for j := 0; j+8 <= len(f); j += 8 {
			x = splitmix(x)
			binary.LittleEndian.PutUint64(f[j:], x)
		}
		w.frames = append(w.frames, f)
		w.sums = append(w.sums, checksum(f))
	}
	return w, nil
}

// splitmix advances a SplitMix64 sequence.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checksum is an order-sensitive hash of a frame's 8-byte words.
func checksum(b []byte) uint64 {
	h := uint64(len(b))
	for j := 0; j+8 <= len(b); j += 8 {
		h = (h ^ binary.LittleEndian.Uint64(b[j:])) * 0x100000001b3
	}
	return h
}

// arrivals counts one phase's deliveries and folds their payloads into
// an order-independent sum.
type arrivals struct {
	want int64
	n    atomic.Int64
	sum  atomic.Uint64
	done chan struct{}
}

func newArrivals(want int64) *arrivals {
	return &arrivals{want: want, done: make(chan struct{})}
}

func (a *arrivals) got(v uint64) {
	a.sum.Add(v)
	if a.n.Add(1) == a.want {
		close(a.done)
	}
}

func (a *arrivals) wait(what string) error {
	t := time.NewTimer(wireTimeout)
	defer t.Stop()
	select {
	case <-a.done:
		return nil
	case <-t.C:
		return fmt.Errorf("%s: %d of %d messages delivered after %v", what, a.n.Load(), a.want, wireTimeout)
	}
}

// wireMesh is one repetition's mesh and its handlers' state.
type wireMesh struct {
	tr        []x10rt.Transport
	bt        []*x10rt.BatchingTransport // nil when unbatched
	lg        *x10rt.WireLedger          // traced repetitions only
	regs      []*obs.Registry
	cur       atomic.Pointer[arrivals]
	pong      chan uint64
	hErr      atomic.Pointer[error] // first Send failure inside a handler
	delivered atomic.Uint64
}

// openMesh builds the mesh; with o non-nil it attaches a WireLedger and
// the batching metrics to o's per-place registries.
func openMesh(batched bool, o *obs.Obs) (*wireMesh, error) {
	if err := registerWireTypes(); err != nil {
		return nil, err
	}
	tcp, err := x10rt.NewLocalCodecTCPMesh(places)
	if err != nil {
		return nil, err
	}
	m := &wireMesh{pong: make(chan uint64, 1)}
	for _, t := range tcp {
		if !batched {
			m.tr = append(m.tr, t)
			continue
		}
		b := x10rt.NewBatchingTransport(t, x10rt.BatchOptions{})
		m.bt = append(m.bt, b)
		m.tr = append(m.tr, b)
	}
	if o != nil {
		m.lg = x10rt.NewWireLedger(places, nil)
		for p, t := range m.tr {
			t.(x10rt.LedgerSink).AttachWireLedger(m.lg)
			m.regs = append(m.regs, o.Place(p))
			if m.bt != nil {
				m.bt[p].AttachMetrics(m.regs[p])
			}
		}
	}
	for p, t := range m.tr {
		p, t := p, t
		err := errors.Join(
			t.Register(hCtl, func(_, _ int, v any) {
				m.cur.Load().got(v.(wireCtl).key())
				m.delivered.Add(1)
			}),
			t.Register(hBulk, func(_, _ int, v any) {
				m.cur.Load().got(checksum(v.([]byte)))
				m.delivered.Add(1)
			}),
			t.Register(hPing, func(src, _ int, v any) {
				m.delivered.Add(1)
				if err := t.Send(p, src, hPong, v, 8, x10rt.ControlClass); err != nil {
					m.hErr.CompareAndSwap(nil, &err)
				}
			}),
			t.Register(hPong, func(_, _ int, v any) {
				m.delivered.Add(1)
				// One ping is outstanding at a time; a pong beyond that
				// is dropped, and the next ping's check reports it.
				select {
				case m.pong <- v.(uint64):
				default:
				}
			}),
		)
		if err != nil {
			m.close()
			return nil, err
		}
	}
	return m, nil
}

func (m *wireMesh) close() {
	for _, t := range m.tr {
		t.Close() // a batching wrapper closes its TCP endpoint
	}
}

// flush pushes out whatever the batching wrappers still queue.
func (m *wireMesh) flush() error {
	var errs []error
	for p, b := range m.bt {
		errs = append(errs, b.Flush(p))
	}
	return errors.Join(errs...)
}

// handshake sends one control struct each way and waits for both: the
// connections dial and exchange their type tables here.
func (m *wireMesh) handshake() error {
	a := newArrivals(places)
	m.cur.Store(a)
	for p := range m.tr {
		if err := m.tr[p].Send(p, 1-p, hCtl, wireCtl{}, 8, x10rt.ControlClass); err != nil {
			return fmt.Errorf("handshake: %w", err)
		}
	}
	if err := m.flush(); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	return a.wait("handshake")
}

// ctlStream is phase (a): both endpoints stream n control structs to
// each other from one goroutine each.
func (m *wireMesh) ctlStream(n int, seed uint64) (time.Duration, error) {
	a := newArrivals(int64(places * n))
	m.cur.Store(a)
	var want atomic.Uint64
	errs := make([]error, places)
	var wg sync.WaitGroup
	start := time.Now()
	for p := range m.tr {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			x := ctlStart(seed, p)
			var sum uint64
			for i := 0; i < n; i++ {
				c := nextCtl(&x, i)
				sum += c.key()
				if err := m.tr[p].Send(p, 1-p, hCtl, c, 8, x10rt.ControlClass); err != nil {
					errs[p] = fmt.Errorf("control stream %d→%d: %w", p, 1-p, err)
					return
				}
			}
			want.Add(sum)
		}(p)
	}
	wg.Wait()
	if err := errors.Join(append(errs, m.flush())...); err != nil {
		return 0, err
	}
	if err := a.wait("control stream"); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if got := a.sum.Load(); got != want.Load() {
		return 0, fmt.Errorf("control stream: payload sum %#x, sent %#x", got, want.Load())
	}
	return d, nil
}

// bulk is phase (b): endpoint 0 sends n frames to endpoint 1.
func (m *wireMesh) bulk(w *wireWorkload) (time.Duration, error) {
	n := w.size.frames
	a := newArrivals(int64(n))
	m.cur.Store(a)
	var want uint64
	start := time.Now()
	for i := 0; i < n; i++ {
		k := i % len(w.frames)
		want += w.sums[k]
		if err := m.tr[0].Send(0, 1, hBulk, w.frames[k], len(w.frames[k]), x10rt.DataClass); err != nil {
			return 0, fmt.Errorf("bulk: %w", err)
		}
	}
	if err := m.flush(); err != nil {
		return 0, fmt.Errorf("bulk: %w", err)
	}
	if err := a.wait("bulk"); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if got := a.sum.Load(); got != want {
		return 0, fmt.Errorf("bulk: frame checksum sum %#x, sent %#x", got, want)
	}
	return d, nil
}

// pingPong is phase (c): n round trips 0 → 1 → 0 with one message
// outstanding. It returns each round trip in µs.
func (m *wireMesh) pingPong(n int) (rtts []float64, total time.Duration, err error) {
	rtts = make([]float64, 0, n)
	t := time.NewTimer(wireTimeout)
	defer t.Stop()
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := m.tr[0].Send(0, 1, hPing, uint64(i), 8, x10rt.ControlClass); err != nil {
			return nil, 0, fmt.Errorf("ping %d: %w", i, err)
		}
		select {
		case v := <-m.pong:
			if v != uint64(i) {
				return nil, 0, fmt.Errorf("ping %d answered by pong %d", i, v)
			}
		case <-t.C:
			if e := m.hErr.Load(); e != nil {
				return nil, 0, fmt.Errorf("ping %d: pong send: %w", i, *e)
			}
			return nil, 0, fmt.Errorf("ping %d: no pong within %v", i, wireTimeout)
		}
		d := time.Since(start)
		total += d
		rtts = append(rtts, float64(d)/1e3)
	}
	return rtts, total, nil
}

func (w *wireWorkload) rep(o *obs.Obs, sp *spans, parent int) (sample, error) {
	var s sample
	// The Class-1 side runs before and after the mesh, so the host's
	// speed drifting during the repetition hits both sides alike.
	var raw [2]time.Duration
	var err error
	sp.call("class1.raw_socket_exchange", parent, func() { raw[0], err = w.rawExchange() })
	if err != nil {
		return s, fmt.Errorf("wire: raw socket comparison: %w", err)
	}
	mem := markMem()
	t0 := time.Now()
	var m *wireMesh
	sp.call("x10rt.NewLocalCodecTCPMesh", parent, func() { m, err = openMesh(true, o) })
	if err != nil {
		return s, fmt.Errorf("wire: %w", err)
	}
	var ctl, bulk, pings time.Duration
	var rtts []float64
	sp.call("x10rt.dial+handshake", parent, func() { err = m.handshake() })
	if err == nil {
		sp.call("wire.a.control_stream", parent, func() { ctl, err = m.ctlStream(w.size.ctlPerSender, w.seed) })
	}
	if err == nil {
		sp.call("wire.b.bulk", parent, func() { bulk, err = m.bulk(w) })
	}
	if err == nil {
		sp.call("wire.c.ping_pong", parent, func() { rtts, pings, err = m.pingPong(w.size.pings) })
	}
	if err == nil && o != nil {
		s.layers = &layers{}
		s.layers.addWire(m.lg, m.bt, m.regs)
		for p, t := range m.tr {
			s.layers.addStats(t.(x10rt.PlaceMetricSource).PlaceStats(p)) // egress only
		}
		s.layers.delivered = m.delivered.Load()
	}
	sp.call("x10rt.Close", parent, m.close)
	s.wall = time.Since(t0).Seconds()
	s.allocB, s.gcs = mem.since()
	if err != nil {
		return s, fmt.Errorf("wire: %w", err)
	}
	msgs := places + places*w.size.ctlPerSender + w.size.frames + 2*w.size.pings
	if got := m.delivered.Load(); got != uint64(msgs) {
		return s, fmt.Errorf("wire: %d messages delivered, %d sent", got, msgs)
	}
	sp.call("class1.raw_socket_exchange", parent, func() { raw[1], err = w.rawExchange() })
	if err != nil {
		return s, fmt.Errorf("wire: raw socket comparison: %w", err)
	}
	exchange := ctl + bulk + pings
	s.kernel = exchange.Seconds()
	s.rate = float64(places*w.size.ctlPerSender) / ctl.Seconds() / 1e6
	// The ratio compares the whole three-phase exchange, which both
	// sides run with the same goroutines over one connection pair.
	exchangeMsgs := float64(msgs - places)
	s.class1 = exchangeMsgs / ((raw[0] + raw[1]) / 2).Seconds() / 1e6
	s.ratio = exchangeMsgs / exchange.Seconds() / 1e6 / s.class1
	s.lat = rtts
	s.units = float64(msgs)
	bulkBytes := float64(w.size.frames * wireFrameBytes)
	s.named = []namedFigure{
		{"msgs_s", s.rate * 1e6, "msg/s"},
		{"bulk_mib_s", bulkBytes / bulk.Seconds() / (1 << 20), "MiB/s"},
		{"rtt_p50_us", quantile(rtts, 0.5), "us"},
		{"rtt_p90_us", quantile(rtts, 0.9), "us"},
		{"exchange_ms", exchange.Seconds() * 1e3, "ms"},
		{"raw_exchange_ms", ((raw[0] + raw[1]) / 2).Seconds() * 1e3, "ms"},
	}
	return s, nil
}

// rawExchange is the wire's Class-1 comparison: the same three phases
// over one plain loopback TCP connection, no runtime layer. (a) Each
// side streams its control structs as 8-byte records through a
// buffered writer while the other side reads and sums them; (b) one
// side writes the frames and the other checksums each one; (c) 8-byte
// ping-pong with one message outstanding.
func (w *wireWorkload) rawExchange() (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	c0, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-accepted
		return 0, err
	}
	defer c0.Close()
	c1 := <-accepted
	if c1 == nil {
		return 0, errors.New("accept failed")
	}
	defer c1.Close()
	conns := [places]net.Conn{c0, c1}

	start := time.Now()
	// (a)
	var wg sync.WaitGroup
	var errs [2 * places]error
	var want, got [places]uint64
	n := w.size.ctlPerSender
	for p := 0; p < places; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			bw := bufio.NewWriterSize(conns[p], 64<<10)
			x := ctlStart(w.seed, p)
			var rec [8]byte
			for i := 0; i < n; i++ {
				c := nextCtl(&x, i)
				want[p] += c.key()
				binary.LittleEndian.PutUint64(rec[:], c.key())
				if _, err := bw.Write(rec[:]); err != nil {
					errs[p] = err
					return
				}
			}
			errs[p] = bw.Flush()
		}(p)
		go func(p int) {
			defer wg.Done()
			br := bufio.NewReaderSize(conns[1-p], 64<<10)
			var rec [8]byte
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(br, rec[:]); err != nil {
					errs[places+p] = err
					return
				}
				got[p] += binary.LittleEndian.Uint64(rec[:])
			}
		}(p)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return 0, err
	}
	if want != got {
		return 0, fmt.Errorf("control records: sums %x, sent %x", got, want)
	}
	// (b)
	bulkErr := make(chan error, 1)
	go func() {
		buf := make([]byte, wireFrameBytes)
		for i := 0; i < w.size.frames; i++ {
			if _, err := io.ReadFull(c1, buf); err != nil {
				bulkErr <- err
				return
			}
			if checksum(buf) != w.sums[i%len(w.sums)] {
				bulkErr <- fmt.Errorf("frame %d checksum mismatch", i)
				return
			}
		}
		bulkErr <- nil
	}()
	for i := 0; i < w.size.frames; i++ {
		if _, err := c0.Write(w.frames[i%len(w.frames)]); err != nil {
			c0.Close() // unblocks the reader
			<-bulkErr
			return 0, err
		}
	}
	if err := <-bulkErr; err != nil {
		return 0, err
	}
	// (c)
	echoErr := make(chan error, 1)
	go func() {
		var rec [8]byte
		for i := 0; i < w.size.pings; i++ {
			if _, err := io.ReadFull(c1, rec[:]); err != nil {
				echoErr <- err
				return
			}
			if _, err := c1.Write(rec[:]); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	var rec [8]byte
	for i := 0; i < w.size.pings; i++ {
		binary.LittleEndian.PutUint64(rec[:], uint64(i))
		_, err := c0.Write(rec[:])
		if err == nil {
			_, err = io.ReadFull(c0, rec[:])
		}
		if err == nil && binary.LittleEndian.Uint64(rec[:]) != uint64(i) {
			err = fmt.Errorf("ping %d echoed as %d", i, binary.LittleEndian.Uint64(rec[:]))
		}
		if err != nil {
			c0.Close() // unblocks the echo
			<-echoErr
			return 0, err
		}
	}
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
