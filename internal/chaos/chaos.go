// Package chaos provides a seed-driven, deterministic fault-injection
// layer for the APGAS runtime, plus an explorer that sweeps workloads
// across many seeds and checks finish-protocol invariants after every
// run.
//
// The centerpiece is Transport, an x10rt.Transport wrapper that
// injects delay, reordering, duplication, drop-with-report, bounded
// partitions, and slow places. Every fault decision is a pure function
// of (seed, src, dst, link sequence number) — see rng.go — so a run is
// reproducible from its seed alone: re-running the same workload with
// the same seed replays the same faults, and the fault log's dump is
// byte-identical (log.go). Goroutine scheduling still varies between
// runs; what is pinned is which messages get faulted and how, which is
// what makes a failing seed debuggable.
//
// Faults fall into two groups:
//
//   - Deliverability-preserving: delay, reorder, slow place, bounded
//     partition. Every message is eventually delivered, so a correct
//     runtime must still terminate and pass all invariants. These are
//     what the seed explorer sweeps.
//   - Lossy: drop and duplicate. The runtime has no retry or dedup
//     layer (deliberately — the paper's protocols assume a reliable
//     transport), so these are for targeted tests: a drop should hang
//     the affected finish and trip the telemetry watchdog, naming the
//     place that owes events; ReleaseDropped then heals the run.
package chaos

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apgas/internal/x10rt"
)

// HoldPlan configures the bounded schedule-permutation mode: the first
// N countable messages of the given class destined to place To are
// captured, and once all N have arrived they are forwarded in Perm
// order. This explores delivery orders of a small message set — e.g.
// the ctlDone credits of a SPMD finish — exhaustively rather than
// probabilistically.
type HoldPlan struct {
	To    int
	Class x10rt.Class
	N     int
	// Perm is a permutation of [0, N); index i of the capture order is
	// forwarded in position Perm's slot. Missing indices are forwarded
	// last in capture order.
	Perm []int
}

// KillPlan configures the place-death fault: when the Seq-th
// fault-eligible message on the (Src → Victim) link is sent, the victim
// place is killed instead of receiving it — the trigger is a pure
// function of per-link send order, so a replay kills at the same
// protocol point. After the kill, fault injection freezes entirely (no
// decisions, no link-sequence consumption): the fault dump is the
// deterministic pre-kill prefix plus one chaos.kill record, which is
// what keeps kill runs byte-identically replayable. A workload that
// never sends an eligible message on the trigger link is simply never
// killed and must pass its oracle unharmed.
type KillPlan struct {
	Victim int
	Src    int
	Seq    uint64
}

// Options configures a chaos Transport. The zero value injects nothing;
// each fault is enabled by its own field. All probabilities are per
// message, evaluated independently in a fixed order (partition, drop,
// dup, delay, reorder, slow — first match wins).
type Options struct {
	// Seed drives every fault decision. Two transports with equal
	// Options observing equal per-link send sequences make equal
	// decisions.
	Seed int64

	// DelayProb delays a message by 1..DelayWindow later link slots.
	DelayProb float64
	// DelayWindow bounds the delay in link messages (default 3).
	DelayWindow int
	// ReorderProb delays a message by exactly one link slot, swapping
	// it with its successor — the minimal reordering the finish
	// protocols must survive.
	ReorderProb float64
	// DupProb forwards a message twice. Only safe for idempotent
	// traffic (e.g. epoch-stamped snapshots); spawn messages are not
	// idempotent, so sweeps keep this at zero.
	DupProb float64
	// DropProb silently discards a message, recording it in the log
	// and parking the payload in a morgue; ReleaseDropped delivers the
	// morgue later ("heal"). Send still reports success, as a lossy
	// network would.
	DropProb float64
	// MaxDrops bounds the number of drops (0 = unlimited).
	MaxDrops int

	// Filter restricts which messages are fault-eligible; nil means
	// every countable message. It must be a deterministic function of
	// its arguments. Telemetry traffic is never faulted.
	Filter func(src, dst int, id x10rt.HandlerID, class x10rt.Class) bool

	// Cut, PartitionMsgs: while a link's message index is below
	// PartitionMsgs and the link crosses the cut (exactly one endpoint
	// in Cut), the message is held. The partition heals per link once
	// PartitionMsgs messages have been sent on it, and wholesale after
	// HealAfter wall time (default 100ms) — it is always bounded.
	Cut           []int
	PartitionMsgs int
	HealAfter     time.Duration

	// SlowLatency > 0 holds every message to or from SlowPlace for
	// that wall duration, modeling one straggler node (the paper's
	// "slow place" hazard for lifeline GLB).
	SlowPlace   int
	SlowLatency time.Duration

	// Kill enables the place-death fault.
	Kill *KillPlan

	// Hold enables schedule-permutation mode.
	Hold *HoldPlan
	// HoldGrace releases an incomplete hold buffer after this wall
	// time so a workload sending fewer than N messages cannot hang
	// (default 100ms).
	HoldGrace time.Duration

	// FlushEvery is the liveness ticker period (default 1ms): held
	// messages whose wall deadline has passed are force-delivered even
	// if no further link traffic arrives. It affects timing only,
	// never the fault log.
	FlushEvery time.Duration
}

func (o Options) withDefaults() Options {
	if o.DelayWindow <= 0 {
		o.DelayWindow = 3
	}
	if o.HealAfter <= 0 {
		o.HealAfter = 100 * time.Millisecond
	}
	if o.HoldGrace <= 0 {
		o.HoldGrace = 100 * time.Millisecond
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = time.Millisecond
	}
	return o
}

// heldMsg is a message parked in a link's holdback queue, the hold
// buffer, or the drop morgue.
type heldMsg struct {
	src, dst int
	id       x10rt.HandlerID
	payload  any
	bytes    int
	class    x10rt.Class
	seq      uint64 // link sequence number at send time
	// releaseSeq, when non-zero, releases the message once the link has
	// assigned sequence numbers beyond it. releaseAt, when non-zero,
	// releases it at that wall time (liveness fallback / timed holds).
	releaseSeq uint64
	releaseAt  time.Time
}

func (m *heldMsg) releasable(linkSeq uint64, now time.Time) bool {
	if m.releaseSeq > 0 && linkSeq > m.releaseSeq {
		return true
	}
	return !m.releaseAt.IsZero() && !now.Before(m.releaseAt)
}

// link is the per-(src,dst) state: a sequence counter driving the
// deterministic fault stream and a holdback queue of delayed messages.
type link struct {
	mu   sync.Mutex
	seq  uint64
	hold []heldMsg
}

// Transport wraps an inner x10rt.Transport with deterministic fault
// injection. It embeds the inner transport and intercepts only Send,
// KillPlace and Close. Everything else passes through unchanged:
//
//   - Handlers are registered on the inner transport.
//   - Traffic accounting is the inner transport's link table, counted
//     when a message is forwarded: dropped messages are counted
//     nowhere, duplicated ones twice, and Stats, PlaceStats and Links
//     stay views of that one table (so Stats == Σ PlaceStats holds
//     across the wrapper).
//   - An attached wire ledger observes what the inner transport
//     actually carries, so held messages are attributed only once
//     forwarded, and attribution never influences a fault decision.
//   - One-sided ops are never faulted and never consume a link
//     fault-stream sequence number, so adding one-sided traffic keeps
//     the fault decisions for active messages byte-identical.
//   - Flush reaches a batching layer below the wrapper but does not
//     release chaos's own holdbacks: a flush hint must not heal
//     injected faults.
type Transport struct {
	x10rt.Transport
	opts  Options
	n     int
	clock VirtualClock
	log   Log
	start time.Time
	grace time.Duration // wall fallback for seq-triggered holds

	links []link
	inCut []bool
	drops atomic.Int64
	// frozen is set the moment any place dies (via the Kill plan or an
	// explicit KillPlace call): from then on Send passes straight
	// through, injecting nothing and consuming no link sequence numbers,
	// so the fault log stays the deterministic pre-kill prefix.
	frozen atomic.Bool

	morgueMu sync.Mutex
	morgue   []heldMsg

	holdMu    sync.Mutex
	holdBuf   []heldMsg
	holdDone  bool
	holdFirst time.Time

	stop     chan struct{}
	stopOnce sync.Once
	flushWG  sync.WaitGroup
}

// Wrap layers chaos fault injection over an inner transport.
func Wrap(inner x10rt.Transport, opts Options) *Transport {
	opts = opts.withDefaults()
	n := inner.NumPlaces()
	t := &Transport{
		Transport: inner,
		opts:      opts,
		n:         n,
		start:     time.Now(),
		grace:     5 * opts.FlushEvery,
		links:     make([]link, n*n),
		inCut:     make([]bool, n),
		stop:      make(chan struct{}),
	}
	if t.grace < 5*time.Millisecond {
		t.grace = 5 * time.Millisecond
	}
	for _, p := range opts.Cut {
		if p >= 0 && p < n {
			t.inCut[p] = true
		}
	}
	t.flushWG.Add(1)
	go t.flusher()
	return t
}

// Clock returns the transport's virtual clock (one tick per fault
// decision), for wiring into core.Config.Now / obs Flight.SetNow when
// replaying.
func (t *Transport) Clock() *VirtualClock { return &t.clock }

// FaultLog returns the deterministic fault log.
func (t *Transport) FaultLog() *Log { return &t.log }

// FaultCounts returns decision counts per fault kind.
func (t *Transport) FaultCounts() map[string]uint64 { return t.log.Counts() }

// eligible reports whether a message may be faulted at all.
func (t *Transport) eligible(src, dst int, id x10rt.HandlerID, class x10rt.Class) bool {
	if id == x10rt.HandlerTelemetry {
		return false // never perturb the observation plane
	}
	if t.opts.Filter != nil {
		return t.opts.Filter(src, dst, id, class)
	}
	return true
}

// Send implements x10rt.Transport. Fault-eligible messages claim the
// next link sequence number under the link lock and draw their fate
// from the deterministic stream; everything else passes straight
// through. Like the inner transport, Send never runs a handler on the
// calling goroutine — it only enqueues (possibly into a holdback
// queue), so the reentrancy invariant of ChanTransport is preserved.
func (t *Transport) Send(src, dst int, id x10rt.HandlerID, payload any, bytes int, class x10rt.Class) error {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n || !t.eligible(src, dst, id, class) {
		return t.Transport.Send(src, dst, id, payload, bytes, class)
	}
	if t.frozen.Load() {
		// Post-kill: injection is frozen (see KillPlan). The inner
		// transport fails sends to the dead place fast on its own.
		return t.Transport.Send(src, dst, id, payload, bytes, class)
	}
	t.clock.Tick()
	now := time.Now()
	ls := &t.links[src*t.n+dst]
	ls.mu.Lock()
	k := ls.seq
	ls.seq++
	m := heldMsg{src: src, dst: dst, id: id, payload: payload, bytes: bytes, class: class, seq: k}

	if kp := t.opts.Kill; kp != nil && src == kp.Src && dst == kp.Victim && k == kp.Seq {
		// The trigger message is consumed by the kill: it died on the
		// wire with its destination. The kill itself runs outside the
		// link lock — the inner transport's death notification fans out
		// to handlers that may send.
		t.log.add(faultRecord{src: src, dst: dst, linkSeq: k, kind: FaultKill, id: int(id), param: int64(kp.Victim)})
		ls.mu.Unlock()
		t.frozen.Store(true)
		_ = t.Transport.KillPlace(kp.Victim)
		return nil
	}

	forwardErr := t.decide(ls, m, k, now)
	// Whatever happened to this message, its sequence number advanced
	// the link: earlier holdbacks may now be due.
	relErr := t.releaseDueLocked(ls, now)
	ls.mu.Unlock()
	if forwardErr != nil {
		return forwardErr
	}
	return relErr
}

// decide applies at most one fault to m (first match wins) and either
// forwards, parks, or discards it. Called with ls.mu held.
func (t *Transport) decide(ls *link, m heldMsg, k uint64, now time.Time) error {
	// Schedule-permutation capture is plan-driven, not probabilistic.
	if t.tryHold(m) {
		return nil
	}
	// Bounded partition: deterministic by link position, heals by
	// message count or wall time.
	if t.opts.PartitionMsgs > 0 && t.inCut[m.src] != t.inCut[m.dst] && k < uint64(t.opts.PartitionMsgs) {
		m.releaseSeq = uint64(t.opts.PartitionMsgs)
		m.releaseAt = t.start.Add(t.opts.HealAfter)
		ls.hold = append(ls.hold, m)
		t.log.add(faultRecord{src: m.src, dst: m.dst, linkSeq: k, kind: FaultPartition, id: int(m.id), param: int64(k)})
		return nil
	}
	// Probabilistic faults draw from the per-message stream in a fixed
	// order so decisions depend only on (seed, src, dst, k).
	s := newFaultStream(t.opts.Seed, m.src, m.dst, k)
	uDrop, uDup, uDelay, uReorder := s.unit(), s.unit(), s.unit(), s.unit()
	delayAmt := 1 + s.intn(t.opts.DelayWindow)

	if uDrop < t.opts.DropProb && (t.opts.MaxDrops == 0 || t.drops.Load() < int64(t.opts.MaxDrops)) {
		t.drops.Add(1)
		t.morgueMu.Lock()
		t.morgue = append(t.morgue, m)
		t.morgueMu.Unlock()
		t.log.add(faultRecord{src: m.src, dst: m.dst, linkSeq: k, kind: FaultDrop, id: int(m.id)})
		return nil // drop-with-report: the sender sees success
	}
	if uDup < t.opts.DupProb {
		t.log.add(faultRecord{src: m.src, dst: m.dst, linkSeq: k, kind: FaultDup, id: int(m.id)})
		if err := t.forward(m); err != nil {
			return err
		}
		return t.forward(m)
	}
	if uDelay < t.opts.DelayProb {
		m.releaseSeq = k + uint64(delayAmt)
		m.releaseAt = now.Add(t.grace)
		ls.hold = append(ls.hold, m)
		t.log.add(faultRecord{src: m.src, dst: m.dst, linkSeq: k, kind: FaultDelay, id: int(m.id), param: int64(delayAmt)})
		return nil
	}
	if uReorder < t.opts.ReorderProb {
		m.releaseSeq = k + 1
		m.releaseAt = now.Add(t.grace)
		ls.hold = append(ls.hold, m)
		t.log.add(faultRecord{src: m.src, dst: m.dst, linkSeq: k, kind: FaultReorder, id: int(m.id), param: 1})
		return nil
	}
	if t.opts.SlowLatency > 0 && (m.src == t.opts.SlowPlace || m.dst == t.opts.SlowPlace) {
		m.releaseAt = now.Add(t.opts.SlowLatency)
		ls.hold = append(ls.hold, m)
		t.log.add(faultRecord{src: m.src, dst: m.dst, linkSeq: k, kind: FaultSlow, id: int(m.id), param: t.opts.SlowLatency.Microseconds()})
		return nil
	}
	return t.forward(m)
}

// tryHold captures m into the permutation buffer when the hold plan
// matches; returns true when the message was consumed.
func (t *Transport) tryHold(m heldMsg) bool {
	h := t.opts.Hold
	if h == nil || m.dst != h.To || m.class != h.Class {
		return false
	}
	t.holdMu.Lock()
	defer t.holdMu.Unlock()
	if t.holdDone {
		return false
	}
	if len(t.holdBuf) == 0 {
		t.holdFirst = time.Now()
	}
	t.log.add(faultRecord{src: m.src, dst: m.dst, linkSeq: m.seq, kind: FaultHold, id: int(m.id), param: int64(len(t.holdBuf))})
	t.holdBuf = append(t.holdBuf, m)
	if len(t.holdBuf) >= h.N {
		t.releaseHoldLocked()
	}
	return true
}

// releaseHoldLocked forwards the hold buffer in Perm order, then any
// leftovers in capture order. Called with holdMu held.
func (t *Transport) releaseHoldLocked() {
	sent := make([]bool, len(t.holdBuf))
	for _, idx := range t.opts.Hold.Perm {
		if idx >= 0 && idx < len(t.holdBuf) && !sent[idx] {
			sent[idx] = true
			t.forward(t.holdBuf[idx])
		}
	}
	for i, m := range t.holdBuf {
		if !sent[i] {
			t.forward(m)
		}
	}
	t.holdBuf = nil
	t.holdDone = true
}

// releaseDueLocked forwards every holdback whose release condition is
// met, preserving capture order. Called with ls.mu held.
func (t *Transport) releaseDueLocked(ls *link, now time.Time) error {
	if len(ls.hold) == 0 {
		return nil
	}
	var firstErr error
	kept := ls.hold[:0]
	for _, m := range ls.hold {
		if m.releasable(ls.seq, now) {
			// A held message bound for a place that died in the meantime
			// fails with ErrPlaceDead; that verdict belongs to the held
			// message, not to the unrelated send that triggered the
			// release, so it must not surface here.
			if err := t.forward(m); err != nil && firstErr == nil &&
				!errors.Is(err, x10rt.ErrPlaceDead) {
				firstErr = err
			}
		} else {
			kept = append(kept, m)
		}
	}
	ls.hold = kept
	return firstErr
}

// forward hands a message to the inner transport.
func (t *Transport) forward(m heldMsg) error {
	return t.Transport.Send(m.src, m.dst, m.id, m.payload, m.bytes, m.class)
}

// flusher is the liveness loop: it periodically delivers holdbacks
// whose wall deadline has passed, so delayed or partitioned messages
// reach their destination even when link traffic stops. It changes
// delivery timing only — never the fault log.
func (t *Transport) flusher() {
	defer t.flushWG.Done()
	ticker := time.NewTicker(t.opts.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			t.flush(false)
		}
	}
}

// flush releases due holdbacks on every link (all of them when force
// is set) and an expired hold buffer; it returns how many messages it
// forwarded.
func (t *Transport) flush(force bool) int {
	now := time.Now()
	moved := 0
	for i := range t.links {
		ls := &t.links[i]
		ls.mu.Lock()
		if len(ls.hold) > 0 {
			kept := ls.hold[:0]
			for _, m := range ls.hold {
				if force || m.releasable(ls.seq, now) {
					t.forward(m)
					moved++
				} else {
					kept = append(kept, m)
				}
			}
			ls.hold = kept
		}
		ls.mu.Unlock()
	}
	t.holdMu.Lock()
	if !t.holdDone && len(t.holdBuf) > 0 && (force || now.Sub(t.holdFirst) > t.opts.HoldGrace) {
		moved += len(t.holdBuf)
		t.releaseHoldLocked()
	}
	t.holdMu.Unlock()
	return moved
}

// ReleaseDropped heals the network: every dropped message is forwarded
// to its destination in canonical (src, dst, seq) order. It returns
// the number of messages delivered.
func (t *Transport) ReleaseDropped() int {
	t.morgueMu.Lock()
	morgue := t.morgue
	t.morgue = nil
	t.morgueMu.Unlock()
	sort.Slice(morgue, func(i, j int) bool {
		a, b := morgue[i], morgue[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.seq < b.seq
	})
	for _, m := range morgue {
		t.forward(m)
	}
	return len(morgue)
}

// DroppedCount returns how many messages currently sit in the morgue.
func (t *Transport) DroppedCount() int {
	t.morgueMu.Lock()
	defer t.morgueMu.Unlock()
	return len(t.morgue)
}

// Drain force-delivers every holdback (healing partitions and expiring
// delays early) and then quiesces the inner transport, repeating until
// no new holdbacks appear — handlers running during the quiesce may
// send messages that get held in turn. Dropped messages stay dropped;
// deliver them explicitly with ReleaseDropped. Call Drain after a
// workload completes and before checking invariants.
func (t *Transport) Drain() {
	for i := 0; i < 64; i++ {
		moved := t.flush(true)
		if q, ok := t.Transport.(interface{ Quiesce() }); ok {
			q.Quiesce()
		}
		if moved == 0 && t.flush(true) == 0 {
			return
		}
	}
}

// Quiesce lets code written against ChanTransport.Quiesce treat a
// chaos-wrapped transport the same way.
func (t *Transport) Quiesce() { t.Drain() }

// KillPlace implements x10rt.Transport by delegating to the inner
// transport. Like a plan-triggered kill, an explicit kill freezes fault
// injection so the fault log stays deterministic.
func (t *Transport) KillPlace(p int) error {
	t.frozen.Store(true)
	return t.Transport.KillPlace(p)
}

// Close implements x10rt.Transport: it stops the flusher and closes
// the inner transport. Held and dropped messages are discarded.
func (t *Transport) Close() error {
	t.stopOnce.Do(func() {
		close(t.stop)
		t.flushWG.Wait()
	})
	return t.Transport.Close()
}
