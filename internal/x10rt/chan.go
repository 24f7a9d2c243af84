package x10rt

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"apgas/internal/obs"
)

// ChanOptions configures an in-process ChanTransport.
type ChanOptions struct {
	// Places is the number of endpoints; must be >= 1.
	Places int

	// ReorderSeed, when non-zero, enables adversarial reordering of
	// control-class messages: each control message is delayed by a
	// pseudo-random number of delivery slots drawn from a generator
	// seeded with this value. Data-class messages stay FIFO per link.
	// This models the paper's observation that "networks can reorder
	// control messages", the hazard the finish protocols must survive.
	ReorderSeed int64

	// ReorderWindow bounds the reordering delay in messages (default 8).
	ReorderWindow int

	// Latency, when non-nil, is invoked for every message and returns an
	// artificial delivery delay. It can model per-hop interconnect cost
	// (see netsim). A nil Latency delivers immediately.
	Latency func(src, dst, bytes int, class Class) time.Duration

	// MailboxHint pre-sizes per-place mailboxes (default 64).
	MailboxHint int
}

// ChanTransport is an in-process Transport: all places live inside one OS
// process and exchange active messages through per-place unbounded
// mailboxes. Each place has a dispatcher goroutine that runs handlers in
// arrival order. The mailbox is unbounded so that handlers may send
// messages without risking transport deadlock (the X10RT contract).
//
// Reentrancy invariant: Send NEVER runs a handler on the calling
// goroutine, not even for self-sends with no injected Latency — it only
// enqueues, and the destination's dispatcher delivers later. This is a
// correctness requirement, not an optimization. An "immediate delivery"
// fast path (running the handler inline inside Send when Latency is nil)
// would mean a handler that itself Sends could re-enter another handler
// — or itself — on the same stack while holding handler-level locks
// (finish roots, GLB place state), deadlocking or corrupting state; it
// would also reorder a self-send ahead of messages already sitting in
// the mailbox, violating per-link FIFO. TestHandlerSendInsideHandler
// pins both properties.
type ChanTransport struct {
	opts       ChanOptions
	handlers   *handlerTable
	places     []*chanEndpoint
	*linkTable // the traffic account: Stats, PlaceStats, Links, metrics
	lg         atomic.Pointer[WireLedger]
	arenas     atomic.Pointer[ArenaTable]
	deaths     deathState
	closed     sync.Once
	done       chan struct{}
}

type chanMsg struct {
	src     int
	id      HandlerID
	payload any
	bytes   int
	class   Class
	due     time.Time // zero when no injected latency
	slot    uint64    // reorder slot; delivery sorted by (slot)
	// os, when non-nil, marks a one-sided op riding the mailbox: it
	// lands in an arena instead of dispatching to a handler, but shares
	// the per-link FIFO with active messages.
	os *OneSidedOp
}

// chanEndpoint is one place's receive side: an unbounded FIFO mailbox
// drained by a dedicated dispatcher goroutine. queue[head:] is pending;
// the dispatcher pops by advancing head, so the slice's capacity is
// reused instead of regrown.
type chanEndpoint struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []chanMsg
	head    int
	closed  bool
	dead    bool   // place killed: queued and future messages are discarded
	seq     uint64 // next delivery slot
	reorder *rand.Rand
	window  int
	idleMu  sync.Mutex
	idle    *sync.Cond
	pending int // messages enqueued but not yet fully handled
}

// NewChanTransport creates an in-process transport with opts.Places places.
func NewChanTransport(opts ChanOptions) (*ChanTransport, error) {
	if opts.Places < 1 {
		return nil, fmt.Errorf("x10rt: need at least one place, got %d", opts.Places)
	}
	if opts.ReorderWindow <= 0 {
		opts.ReorderWindow = 8
	}
	if opts.MailboxHint <= 0 {
		opts.MailboxHint = 64
	}
	t := &ChanTransport{
		opts:      opts,
		handlers:  newHandlerTable(),
		places:    make([]*chanEndpoint, opts.Places),
		linkTable: newLinkTable(opts.Places, 0, opts.Places),
		done:      make(chan struct{}),
	}
	for i := range t.places {
		ep := &chanEndpoint{
			queue:  make([]chanMsg, 0, opts.MailboxHint),
			window: opts.ReorderWindow,
		}
		ep.cond = sync.NewCond(&ep.mu)
		ep.idle = sync.NewCond(&ep.idleMu)
		if opts.ReorderSeed != 0 {
			ep.reorder = rand.New(rand.NewSource(opts.ReorderSeed + int64(i)*7919))
		}
		t.places[i] = ep
		go t.dispatch(i, ep)
	}
	return t, nil
}

// NumPlaces implements Transport.
func (t *ChanTransport) NumPlaces() int { return t.opts.Places }

// Register implements Transport.
func (t *ChanTransport) Register(id HandlerID, h Handler) error {
	return t.handlers.register(id, h)
}

// Send implements Transport. It enqueues and returns: the handler runs
// later on dst's dispatcher goroutine, never on the caller (see the
// reentrancy invariant on ChanTransport).
func (t *ChanTransport) Send(src, dst int, id HandlerID, payload any, bytes int, class Class) error {
	if src < 0 || src >= t.opts.Places || dst < 0 || dst >= t.opts.Places {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadPlace, src, dst, t.opts.Places)
	}
	if p := t.deaths.deadEnd(src, dst); p >= 0 {
		return &PlaceDeadError{Place: p}
	}
	if _, ok := t.handlers.lookup(id); !ok {
		return fmt.Errorf("%w: id=%d", ErrNoHandler, id)
	}
	m := chanMsg{src: src, id: id, payload: payload, bytes: bytes, class: class}
	if t.opts.Latency != nil {
		if d := t.opts.Latency(src, dst, bytes, class); d > 0 {
			m.due = time.Now().Add(d)
		}
	}
	ep := t.places[dst]
	// Count the message as pending before it becomes visible to the
	// dispatcher so Quiesce never observes a handled-but-uncounted message.
	ep.idleMu.Lock()
	ep.pending++
	ep.idleMu.Unlock()
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		ep.idleMu.Lock()
		ep.pending--
		if ep.pending == 0 {
			ep.idle.Broadcast()
		}
		ep.idleMu.Unlock()
		return ErrClosed
	}
	m.slot = ep.seq
	ep.seq++
	// Inject reordering for control traffic by pushing the message a
	// random number of slots into the future; data stays FIFO.
	if ep.reorder != nil && class == ControlClass {
		m.slot += uint64(ep.reorder.Intn(ep.window))
	}
	ep.enqueueLocked(m)
	ep.mu.Unlock()
	// In-process transports do not serialize, so the modeled size is
	// also the wire size (see Stats.WireBytes).
	t.count(t.lg.Load(), src, dst, id, class, bytes, bytes)
	return nil
}

// SendOneSided implements Transport: op rides dst's mailbox like a
// DataClass message (same pending/quiesce discipline, same per-link
// FIFO, never reordered) but is landed by the arena table on the
// dispatcher — no handler, no serialization. op.Local is the caller's
// typed slice, not a copy: like real RDMA, a put's source buffer must
// stay stable until the enclosing finish completes. A pooled XorBatch
// op is released by the dispatcher once it has landed.
func (t *ChanTransport) SendOneSided(src, dst int, op *OneSidedOp) error {
	if src < 0 || src >= t.opts.Places || dst < 0 || dst >= t.opts.Places {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadPlace, src, dst, t.opts.Places)
	}
	if p := t.deaths.deadEnd(src, dst); p >= 0 {
		return &PlaceDeadError{Place: p}
	}
	if t.arenas.Load() == nil {
		return fmt.Errorf("x10rt: one-sided send with no arena table attached")
	}
	// Read everything needed from op before it is enqueued: from then on
	// the dispatcher owns it and may land and release it at any moment.
	wire := OneSidedWireBytes(src, op)
	bytes := op.Bytes
	m := chanMsg{src: src, id: HandlerOneSided, bytes: bytes, class: DataClass, os: op}
	if t.opts.Latency != nil {
		if d := t.opts.Latency(src, dst, wire, DataClass); d > 0 {
			m.due = time.Now().Add(d)
		}
	}
	ep := t.places[dst]
	ep.idleMu.Lock()
	ep.pending++
	ep.idleMu.Unlock()
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		ep.idleMu.Lock()
		ep.pending--
		if ep.pending == 0 {
			ep.idle.Broadcast()
		}
		ep.idleMu.Unlock()
		return ErrClosed
	}
	m.slot = ep.seq
	ep.seq++
	ep.enqueueLocked(m)
	ep.mu.Unlock()
	// The modeled wire cost is the exact v5 frame length.
	t.count(t.lg.Load(), src, dst, HandlerOneSided, DataClass, bytes, wire)
	return nil
}

// AttachArenas implements Transport.
func (t *ChanTransport) AttachArenas(at *ArenaTable) { t.arenas.Store(at) }

// enqueueLocked inserts m keeping the pending queue sorted by slot (stable
// FIFO when no reordering is injected, since slots are then strictly
// increasing). A full slice whose popped prefix is at least half of it
// first slides its pending tail to the front; otherwise append grows it.
// Each slide so frees at least as many slots as it moves, which keeps a
// standing backlog at constant amortized cost per message.
func (ep *chanEndpoint) enqueueLocked(m chanMsg) {
	q := ep.queue
	if len(q) == cap(q) && ep.head > 0 && ep.head >= len(q)/2 {
		n := copy(q, q[ep.head:])
		clear(q[n:])
		q = q[:n]
		ep.head = 0
	}
	i := len(q)
	for i > ep.head && q[i-1].slot > m.slot {
		i--
	}
	q = append(q, chanMsg{})
	copy(q[i+1:], q[i:])
	q[i] = m
	ep.queue = q
	ep.cond.Signal()
}

// popLocked removes and returns the front pending message; the queue
// must not be empty. An emptied queue rewinds to the slice's start.
func (ep *chanEndpoint) popLocked() chanMsg {
	m := ep.queue[ep.head]
	ep.queue[ep.head] = chanMsg{}
	ep.head++
	if ep.head == len(ep.queue) {
		ep.queue, ep.head = ep.queue[:0], 0
	}
	return m
}

func (t *ChanTransport) dispatch(place int, ep *chanEndpoint) {
	// reply ships a landing Get's response back to its requester,
	// replyTo. Landing calls it synchronously, so one closure serves
	// every op and a landing allocates nothing here.
	var replyTo int
	reply := func(rep *OneSidedOp) error { return t.SendOneSided(place, replyTo, rep) }
	for {
		ep.mu.Lock()
		for ep.head == len(ep.queue) && !ep.closed {
			ep.cond.Wait()
		}
		if ep.closed && ep.head == len(ep.queue) {
			ep.mu.Unlock()
			return
		}
		m := ep.popLocked()
		dead := ep.dead
		ep.mu.Unlock()

		if !dead && !m.due.IsZero() {
			if d := time.Until(m.due); d > 0 {
				time.Sleep(d)
			}
		}
		if m.os != nil {
			if at := t.arenas.Load(); at != nil && !dead {
				if lg := t.lg.Load(); lg != nil {
					lg.RecordRecv(place, HandlerOneSided, 0)
				}
				replyTo = m.src
				err := at.Land(m.src, place, m.os, reply)
				var pde *PlaceDeadError
				if err != nil && !errors.As(err, &pde) {
					// In-process one-sided ops come from this process's
					// own runtime: a bad offset or arena is a caller bug,
					// not network corruption. A get whose requester died
					// before the reply, however, is normal attrition.
					panic(fmt.Sprintf("x10rt: one-sided land at place %d: %v", place, err))
				}
			}
			m.os.release()
		} else if h, ok := t.handlers.lookup(m.id); ok && !dead {
			if lg := t.lg.Load(); lg != nil {
				// In-process delivery has no deserialization cost.
				lg.RecordRecv(place, m.id, 0)
			}
			h(m.src, place, m.payload)
		}
		ep.idleMu.Lock()
		ep.pending--
		if ep.pending == 0 {
			ep.idle.Broadcast()
		}
		ep.idleMu.Unlock()
	}
}

// Quiesce blocks until every message enqueued so far at every place has been
// handled. It is a testing aid, not part of the Transport interface; the
// runtime's finish protocols never rely on it.
func (t *ChanTransport) Quiesce() {
	for _, ep := range t.places {
		ep.idleMu.Lock()
		for ep.pending > 0 {
			ep.idle.Wait()
		}
		ep.idleMu.Unlock()
	}
}

// KillPlace implements Transport: place p is severed from the
// transport. Messages queued for p are discarded, future sends to or
// from p fail with a *PlaceDeadError, and every NotifyDeath callback
// fires once per surviving place (on a fresh goroutine — see
// Transport.NotifyDeath). Idempotent.
func (t *ChanTransport) KillPlace(p int) error {
	if p < 0 || p >= t.opts.Places {
		return fmt.Errorf("%w: p=%d n=%d", ErrBadPlace, p, t.opts.Places)
	}
	if !t.deaths.kill(p) {
		return nil // already dead
	}
	ep := t.places[p]
	ep.mu.Lock()
	ep.dead = true
	dropped := len(ep.queue) - ep.head
	ep.queue, ep.head = nil, 0
	ep.mu.Unlock()
	if dropped > 0 {
		// The dispatcher would have decremented pending once per handled
		// message; account for the purged ones here so Quiesce stays exact.
		ep.idleMu.Lock()
		ep.pending -= dropped
		if ep.pending == 0 {
			ep.idle.Broadcast()
		}
		ep.idleMu.Unlock()
	}
	t.deaths.notify(p, t.opts.Places)
	return nil
}

// PlaceDead implements Transport.
func (t *ChanTransport) PlaceDead(p int) bool { return t.deaths.isDead(p) }

// NotifyDeath implements Transport.
func (t *ChanTransport) NotifyDeath(fn func(dead, observer int)) { t.deaths.subscribe(fn) }

// Flush implements Transport; the in-process transport buffers nothing.
func (t *ChanTransport) Flush(int) error { return nil }

// AttachTracer implements Transport; in-process messages carry no
// frames to stamp.
func (t *ChanTransport) AttachTracer(*obs.Tracer) {}

// AttachWireLedger implements Transport: every subsequent send and
// delivery is attributed by handler, and the ledger's link rows read
// this transport's link table. Safe to call at any time; nil detaches.
func (t *ChanTransport) AttachWireLedger(lg *WireLedger) {
	lg.attachTable(t.linkTable)
	t.lg.Store(lg)
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.closed.Do(func() {
		close(t.done)
		for _, ep := range t.places {
			ep.mu.Lock()
			ep.closed = true
			ep.cond.Broadcast()
			ep.mu.Unlock()
		}
	})
	return nil
}
