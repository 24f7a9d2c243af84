package x10rt

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"apgas/internal/obs"
)

// BatchOptions configures a BatchingTransport.
type BatchOptions struct {
	// MaxDelay bounds how long a queued message may wait before its
	// batch is flushed, and doubles as the idle threshold: a send on a
	// link that has been quiet for at least MaxDelay flushes
	// immediately (batch of one) instead of waiting for company.
	// Default 200µs.
	MaxDelay time.Duration

	// MaxFrames flushes a link once this many messages are queued.
	// Default 64.
	MaxFrames int

	// MaxBytes flushes a link once its queued modeled bytes reach this.
	// Default 64 KiB.
	MaxBytes int

	// CompressMin enables transparent compression of batch payloads at
	// least this many encoded bytes long, when the underlying transport
	// serializes (BatchSender). 0 disables compression.
	CompressMin int

	// Now, when non-nil, replaces the wall clock for flush decisions
	// (nanoseconds, monotonic). The chaos harness passes its virtual
	// clock here so timing predicates are functions of simulated, not
	// host, time.
	Now func() int64

	// FlushOnStall makes the background flusher treat a stalled clock —
	// Now unchanged since its previous tick — as aging every non-empty
	// queue. A virtual clock that only advances on message events
	// freezes the moment the whole system blocks on a queued batch,
	// and with it both flush predicates; this restores liveness in
	// wall time without touching per-link send order, so replays stay
	// byte-identical. Pointless (and off) with a wall clock.
	FlushOnStall bool
}

func (o *BatchOptions) fill() {
	if o.MaxDelay <= 0 {
		o.MaxDelay = 200 * time.Microsecond
	}
	if o.MaxFrames <= 0 {
		o.MaxFrames = 64
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 10
	}
	if o.Now == nil {
		start := time.Now()
		o.Now = func() int64 { return int64(time.Since(start)) }
	}
}

// flushReason labels why a batch left its queue, for the flush-reason
// counters.
type flushReason uint8

const (
	flushIdle     flushReason = iota // link was idle; latency wins
	flushSize                        // frame or byte threshold reached
	flushAged                        // background flusher found an aged queue
	flushExplicit                    // Flush / Quiesce / Close forced it
	numFlushReasons
)

// batchMetrics are the wrapper's own always-on metrics, registered
// under x10rt.batch.* when a registry attaches. The traffic counters
// proper (x10rt.msgs.*, x10rt.bytes.*) stay with the inner transport:
// batching changes how messages travel, not how many there are.
type batchMetrics struct {
	batches obs.Counter // batches forwarded
	msgs    obs.Counter // messages carried by those batches
	reasons [numFlushReasons]obs.Counter
	frames  obs.Histogram // messages per batch
	bytes   obs.Histogram // modeled bytes per batch
	delay   obs.Histogram // ns from first enqueue to flush

	// qdepth/qbytes gauge the flusher's backpressure: total queued
	// messages and modeled bytes across every link, sampled by the
	// background flusher on each tick. A persistently high value names
	// batching (not the inner wire) as where messages are waiting; the
	// wire ledger's per-link qwait_ns then says on which link.
	qdepth obs.Gauge
	qbytes obs.Gauge
}

func (m *batchMetrics) attach(r *obs.Registry) {
	r.RegisterCounter("x10rt.batch.batches", &m.batches)
	r.RegisterCounter("x10rt.batch.msgs", &m.msgs)
	r.RegisterCounter("x10rt.batch.flush.idle", &m.reasons[flushIdle])
	r.RegisterCounter("x10rt.batch.flush.size", &m.reasons[flushSize])
	r.RegisterCounter("x10rt.batch.flush.aged", &m.reasons[flushAged])
	r.RegisterCounter("x10rt.batch.flush.explicit", &m.reasons[flushExplicit])
	r.RegisterHistogram("x10rt.batch.frames", &m.frames)
	r.RegisterHistogram("x10rt.batch.bytes", &m.bytes)
	r.RegisterHistogram("x10rt.batch.flush_ns", &m.delay)
	r.RegisterGauge("x10rt.batch.qdepth", &m.qdepth)
	r.RegisterGauge("x10rt.batch.qbytes", &m.qbytes)
}

// batchLink is the send queue of one (src, dst) link. Two locks split
// its roles: mu guards the queue and is only ever held briefly; sendMu
// serializes forwarding to the inner transport so concurrent flushes
// cannot interleave two batches of the same link, which would break
// per-link FIFO. Lock order: sendMu before mu. The inner transport
// never runs handlers on the sender's goroutine (the reentrancy
// invariant), so holding sendMu across inner sends cannot re-enter.
type batchLink struct {
	sendMu sync.Mutex
	// spare is the queue array of the previous flush, cleared and handed
	// back to q on the next one, so a loaded link stops regrowing its
	// queue from nil every batch. Guarded by sendMu.
	spare []BatchMsg

	mu      sync.Mutex
	q       []BatchMsg
	qBytes  int
	firstNs int64 // Now() when the oldest queued message arrived
	lastNs  int64 // Now() of the most recent send on this link
}

// BatchingTransport coalesces small sends into per-link batches before
// they reach the wrapped transport. It implements the paper's
// message-aggregation discipline (§3.3: coalescing control traffic so
// fine-grained finish bookkeeping does not consume the interconnect)
// as a decorator, so every transport — chan, netsim-shaped chan, TCP,
// chaos-wrapped — gets identical semantics.
//
// Flush policy is adaptive: a send on an idle link (no traffic for
// MaxDelay) flushes immediately, keeping latency at the unbatched
// floor when there is nothing to coalesce; under load a link
// accumulates until MaxFrames messages or MaxBytes modeled bytes are
// queued, and a background flusher bounds the wait of a partial batch
// to roughly MaxDelay.
//
// Batching preserves per-link FIFO: messages for one (src, dst) pair
// reach the inner transport in Send order, whatever the batch
// boundaries. Telemetry messages (HandlerTelemetry) and self-sends
// bypass the queues entirely — the former so the observability plane
// neither perturbs nor rides on batching, the latter because loopback
// has no wire to optimize.
//
// The wrapper embeds the transport it wraps; the methods it overrides
// are the ones batching changes.
type BatchingTransport struct {
	Transport
	opts  BatchOptions
	n     int
	links []*batchLink // n*n, indexed src*n+dst

	// mirror holds the ids registered through this wrapper: a snapshot
	// Send reads per message, replaced by Register under mirrorMu.
	mirror   atomic.Pointer[map[HandlerID]struct{}]
	mirrorMu sync.Mutex

	bs BatchSender // inner's batch fast path, nil when unsupported
	bm batchMetrics
	lg atomic.Pointer[WireLedger] // queue-wait attribution, nil when detached

	closed  atomic.Bool
	bgErr   atomic.Value // first background flush error (type error)
	stop    chan struct{}
	stopped sync.WaitGroup
}

// NewBatchingTransport wraps inner with per-link send batching. Close
// flushes the queues and closes inner.
func NewBatchingTransport(inner Transport, opts BatchOptions) *BatchingTransport {
	opts.fill()
	n := inner.NumPlaces()
	t := &BatchingTransport{
		Transport: inner,
		opts:      opts,
		n:         n,
		links:     make([]*batchLink, n*n),
		stop:      make(chan struct{}),
	}
	t.mirror.Store(&map[HandlerID]struct{}{})
	for i := range t.links {
		// lastNs far in the past so the first send on every link takes
		// the idle fast path.
		t.links[i] = &batchLink{lastNs: math.MinInt64 / 2}
	}
	t.bs, _ = inner.(BatchSender)
	// A death reported from below (e.g. a chaos-injected kill on the
	// inner transport) must drop the batches queued for the dead place
	// up here, or a later flush would fail and poison the whole wrapper.
	// Idempotent, so the once-per-survivor callback shape is fine.
	inner.NotifyDeath(func(dead, _ int) { t.purgePlace(dead) })
	t.stopped.Add(1)
	go t.flushLoop()
	return t
}

// purgePlace discards every queued message on links to or from p.
func (t *BatchingTransport) purgePlace(p int) {
	if p < 0 || p >= t.n {
		return
	}
	for src := 0; src < t.n; src++ {
		for dst := 0; dst < t.n; dst++ {
			if src != p && dst != p {
				continue
			}
			l := t.links[src*t.n+dst]
			l.mu.Lock()
			l.q = nil
			l.qBytes = 0
			l.mu.Unlock()
		}
	}
}

// Register implements Transport. The wrapper mirrors registrations so
// a Send naming an unregistered handler fails synchronously, before
// the message disappears into a queue.
func (t *BatchingTransport) Register(id HandlerID, h Handler) error {
	if err := t.Transport.Register(id, h); err != nil {
		return err
	}
	t.mirrorMu.Lock()
	m := maps.Clone(*t.mirror.Load())
	m[id] = struct{}{}
	t.mirror.Store(&m)
	t.mirrorMu.Unlock()
	return nil
}

// Send implements Transport. It enqueues on the (src, dst) link and
// returns; the batch reaches the inner transport on this call (idle or
// full link), on a later send, or on the background flusher's tick.
func (t *BatchingTransport) Send(src, dst int, id HandlerID, payload any, bytes int, class Class) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if err, _ := t.bgErr.Load().(error); err != nil {
		return fmt.Errorf("x10rt: earlier batch flush failed: %w", err)
	}
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadPlace, src, dst, t.n)
	}
	if _, ok := (*t.mirror.Load())[id]; !ok {
		return fmt.Errorf("%w: id=%d", ErrNoHandler, id)
	}
	if err := t.deadEnd(src, dst); err != nil {
		return err
	}
	if src == dst || id == HandlerTelemetry {
		return t.Transport.Send(src, dst, id, payload, bytes, class)
	}

	l := t.links[src*t.n+dst]
	now := t.opts.Now()
	l.mu.Lock()
	if len(l.q) == 0 {
		l.firstNs = now
	}
	l.q = append(l.q, BatchMsg{ID: id, Payload: payload, Bytes: bytes, Class: class})
	l.qBytes += bytes
	idle := len(l.q) == 1 && now-l.lastNs >= int64(t.opts.MaxDelay)
	full := len(l.q) >= t.opts.MaxFrames || l.qBytes >= t.opts.MaxBytes
	l.lastNs = now
	l.mu.Unlock()

	switch {
	case idle:
		return t.flushLink(l, src, dst, flushIdle)
	case full:
		return t.flushLink(l, src, dst, flushSize)
	}
	return nil
}

// SendOneSided implements Transport. The link's queued batch is flushed
// first so the op cannot overtake active messages already accepted on
// the same link — one-sided ordering is exactly send order, batched or
// not.
func (t *BatchingTransport) SendOneSided(src, dst int, op *OneSidedOp) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if err, _ := t.bgErr.Load().(error); err != nil {
		return fmt.Errorf("x10rt: earlier batch flush failed: %w", err)
	}
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadPlace, src, dst, t.n)
	}
	if err := t.deadEnd(src, dst); err != nil {
		return err
	}
	if src != dst {
		if err := t.flushLink(t.links[src*t.n+dst], src, dst, flushExplicit); err != nil {
			return err
		}
	}
	return t.Transport.SendOneSided(src, dst, op)
}

// deadEnd returns a *PlaceDeadError naming the dead endpoint of the
// (src, dst) link, or nil when both are alive.
func (t *BatchingTransport) deadEnd(src, dst int) error {
	if t.PlaceDead(dst) {
		return &PlaceDeadError{Place: dst}
	}
	if t.PlaceDead(src) {
		return &PlaceDeadError{Place: src}
	}
	return nil
}

// flushLink forwards everything queued on l to the inner transport.
// sendMu makes concurrent flushes of the same link mutually exclusive
// and in-order; the queue swap under mu keeps Send fast.
func (t *BatchingTransport) flushLink(l *batchLink, src, dst int, why flushReason) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()

	l.mu.Lock()
	q := l.q
	if len(q) == 0 {
		l.mu.Unlock()
		return nil
	}
	qBytes := l.qBytes
	firstNs := l.firstNs
	l.q, l.spare = l.spare, nil
	l.qBytes = 0
	l.mu.Unlock()

	t.bm.batches.Inc()
	t.bm.msgs.Add(uint64(len(q)))
	t.bm.reasons[why].Inc()
	t.bm.frames.Observe(uint64(len(q)))
	t.bm.bytes.Observe(uint64(qBytes))
	d := t.opts.Now() - firstNs
	if d > 0 {
		t.bm.delay.Observe(uint64(d))
	} else {
		d = 0
		t.bm.delay.Observe(0)
	}
	if lg := t.lg.Load(); lg != nil {
		lg.RecordQueueWait(src, dst, d)
	}

	// Every inner send copies what it keeps, so q's array is free for
	// the next batch once they return.
	defer func() {
		clear(q)
		l.spare = q[:0]
	}()
	if t.bs != nil && len(q) > 1 {
		return t.bs.SendBatch(src, dst, q, t.opts.CompressMin)
	}
	for i := range q {
		m := &q[i]
		if err := t.Transport.Send(src, dst, m.ID, m.Payload, m.Bytes, m.Class); err != nil {
			return err
		}
	}
	return nil
}

// flushLoop is the background flusher: it wakes a few times per
// MaxDelay and pushes out any queue whose oldest message has waited
// long enough, bounding the latency cost of batching on links that go
// quiet mid-batch.
func (t *BatchingTransport) flushLoop() {
	defer t.stopped.Done()
	period := t.opts.MaxDelay / 2
	if period < 50*time.Microsecond {
		period = 50 * time.Microsecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	prevNow := int64(math.MinInt64)
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		now := t.opts.Now()
		stalled := t.opts.FlushOnStall && now == prevNow
		prevNow = now
		var qdepth, qbytes int64
		for src := 0; src < t.n; src++ {
			for dst := 0; dst < t.n; dst++ {
				l := t.links[src*t.n+dst]
				l.mu.Lock()
				qdepth += int64(len(l.q))
				qbytes += int64(l.qBytes)
				aged := len(l.q) > 0 && (stalled || now-l.firstNs >= int64(t.opts.MaxDelay))
				l.mu.Unlock()
				if !aged {
					continue
				}
				if err := t.flushLink(l, src, dst, flushAged); err != nil &&
					!errors.Is(err, ErrClosed) && !errors.Is(err, ErrPlaceDead) {
					// A dead-place flush failure loses only that link's
					// frames (the place is gone); it must not poison the
					// surviving links' traffic.
					t.bgErr.CompareAndSwap(nil, err)
				}
			}
		}
		// The gauges sample the pre-flush queue state of this tick, so a
		// standing backlog shows up even when every aged link drains.
		t.bm.qdepth.Set(qdepth)
		t.bm.qbytes.Set(qbytes)
	}
}

// Flush implements Transport: it pushes every batch queued at source
// place src (all of them when src < 0) to the inner transport now.
func (t *BatchingTransport) Flush(src int) error {
	var first error
	lo, hi := src, src+1
	if src < 0 {
		lo, hi = 0, t.n
	}
	for s := lo; s < hi; s++ {
		for dst := 0; dst < t.n; dst++ {
			if err := t.flushLink(t.links[s*t.n+dst], s, dst, flushExplicit); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Quiesce flushes all queues and waits for the inner transport to go
// idle, repeating while handlers generate new batched traffic. It only
// terminates when the system actually quiesces, matching the contract
// of ChanTransport.Quiesce and chaos drains.
func (t *BatchingTransport) Quiesce() {
	type quiescer interface{ Quiesce() }
	iq, _ := t.Transport.(quiescer)
	for {
		before := t.bm.batches.Value()
		_ = t.Flush(-1)
		if iq != nil {
			iq.Quiesce()
		}
		queued := false
		for _, l := range t.links {
			l.mu.Lock()
			if len(l.q) > 0 {
				queued = true
			}
			l.mu.Unlock()
		}
		if !queued && t.bm.batches.Value() == before {
			return
		}
	}
}

// KillPlace implements Transport: the wrapper's queues touching p are
// dropped first so no doomed flush races the kill, then the death
// propagates down (which fires the inner transport's notifiers,
// including the purge subscription).
func (t *BatchingTransport) KillPlace(p int) error {
	if p < 0 || p >= t.n {
		return fmt.Errorf("%w: p=%d n=%d", ErrBadPlace, p, t.n)
	}
	t.purgePlace(p)
	return t.Transport.KillPlace(p)
}

// AttachMetrics implements Transport: the inner transport's traffic
// counters plus the wrapper's x10rt.batch.* metrics.
func (t *BatchingTransport) AttachMetrics(r *obs.Registry) {
	t.Transport.AttachMetrics(r)
	t.bm.attach(r)
}

// AttachWireLedger implements Transport: the attachment is forwarded to
// the inner transport (which records sends, wire bytes, and codec
// timings), and the wrapper additionally records each link's batch
// queue wait into the same ledger.
func (t *BatchingTransport) AttachWireLedger(lg *WireLedger) {
	t.lg.Store(lg)
	t.Transport.AttachWireLedger(lg)
}

// BatchStats reports the wrapper's own counters: batches forwarded and
// messages they carried.
func (t *BatchingTransport) BatchStats() (batches, msgs uint64) {
	return t.bm.batches.Value(), t.bm.msgs.Value()
}

// Close implements Transport: it stops the background flusher, pushes
// out every queued message, and closes the inner transport.
func (t *BatchingTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stop)
	t.stopped.Wait()
	_ = t.Flush(-1)
	return t.Transport.Close()
}
