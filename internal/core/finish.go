package core

import (
	"context"
	"fmt"
	"sync"

	"apgas/internal/obs"
)

// Pattern selects a finish implementation. The X10 runtime of the paper
// picks these through programmer-supplied pragmas (a prototype compiler
// analysis could infer them); here the pattern is an explicit argument to
// FinishPragma. PatternDefault is the fully general algorithm, with the
// dynamic local->distributed promotion described in §3.1.
type Pattern uint8

const (
	// PatternDefault is the general algorithm: it optimistically assumes
	// the finish is local (a plain counter) and switches to the
	// distributed cumulative-vector protocol the first time a governed
	// activity executes an at. It handles arbitrary nesting of async and
	// at. Space at the root is O(n^2) in the number of places involved.
	PatternDefault Pattern = iota

	// PatternAsync (FINISH_ASYNC) governs a single activity, possibly
	// remote: `finish at (p) async S`. Termination needs at most one
	// control message.
	PatternAsync

	// PatternHere (FINISH_HERE) governs a round trip: an activity is sent
	// to a remote place and sends exactly one activity back home. The
	// termination token travels with the messages; the remote side sends
	// no control traffic at all. This is the "puts a request, awaits the
	// response" shape used for steal attempts in UTS.
	PatternHere

	// PatternLocal (FINISH_LOCAL) governs activities that never leave the
	// place: a plain atomic counter with no control messages.
	PatternLocal

	// PatternSPMD (FINISH_SPMD) governs remote activities that do not
	// spawn subactivities outside of a nested finish:
	// `finish for (p in places) at (p) async finish S`. The root waits
	// for exactly n completion messages; their order, source and content
	// are irrelevant.
	PatternSPMD

	// PatternDense (FINISH_DENSE) is the general cumulative-vector
	// protocol with software routing: control messages from place p are
	// routed through the master places p-p%b and root-root%b (b = places
	// per host), shaping the irregular control traffic into a low
	// out-degree pattern the interconnect handles well. Use it for
	// finishes governing dense or irregular communication graphs, such
	// as the root finish of distributed work stealing.
	PatternDense

	numPatterns
)

// String names the pattern as in the paper.
func (p Pattern) String() string {
	switch p {
	case PatternDefault:
		return "FINISH_DEFAULT"
	case PatternAsync:
		return "FINISH_ASYNC"
	case PatternHere:
		return "FINISH_HERE"
	case PatternLocal:
		return "FINISH_LOCAL"
	case PatternSPMD:
		return "FINISH_SPMD"
	case PatternDense:
		return "FINISH_DENSE"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// finishID names a finish instance globally: the place its root activity
// runs at plus a home-local sequence number.
type finishID struct {
	Home Place
	Seq  uint64
}

// finRef is the handle activities carry to their governing finish.
type finRef struct {
	ID      finishID
	Pattern Pattern
	// Span is the trace span id (obs.Tracer lane) of the finish, 0 when
	// tracing is off. Activities record it as their span parent so a
	// post-run pass can rebuild the finish tree.
	Span uint64
}

func (r finRef) valid() bool { return r.Pattern < numPatterns && r.ID.Seq != 0 }

// finEvent kinds. Events are raised by the activity machinery (ctx.go) and
// dispatched either to the root finish object (at the home place) or to the
// per-place proxy of the distributed protocols.
type finEventKind uint8

const (
	// evLocalSpawn: an activity was spawned at this place (other unused).
	evLocalSpawn finEventKind = iota
	// evRemoteSpawn: a spawn message is about to leave for place other.
	evRemoteSpawn
	// evRemoteBegin: a spawn message from place other arrived here.
	evRemoteBegin
	// evTerminate: an activity finished here (err may be non-nil).
	evTerminate
)

// rootFinish is a finish root: the state at the home place that the
// root activity blocks on.
type rootFinish interface {
	// event processes a local event at the home place.
	event(kind finEventKind, other Place, err error)
	// ctl processes a control message from a remote place.
	ctl(src Place, payload any)
	// wait blocks (cooperatively) until quiescence and returns the
	// combined error of governed activities.
	wait(pl *place) error
	// state returns a point-in-time diagnostic view (see debug.go).
	state() FinishState
	// placeDeath forgives place p's credit provenance and re-tests
	// termination; an ErrPlaceDead is recorded if the finish had touched
	// p (see resilient.go).
	placeDeath(p Place)
	// forceFire aborts the finish because its own home place p died: the
	// waiter fires with ErrPlaceDead so a blocked root activity unwinds.
	forceFire(p Place)
	// compensateSpawn undoes one counted remote spawn toward dst that
	// the transport refused (dst died in the window between the
	// evRemoteSpawn event and the send), recording err.
	compensateSpawn(dst Place, err error)
	// addError records err without touching any counters (a spawn
	// rejected before it was ever counted).
	addError(err error)
}

// Finish runs body in the current activity and then blocks until every
// activity transitively spawned by body — at any place — has terminated
// (X10's finish S). It uses the general PatternDefault algorithm and
// returns the combined error of any governed activities (and of body
// itself) that panicked.
func (c *Ctx) Finish(body func(*Ctx)) error {
	return c.FinishPragma(PatternDefault, body)
}

// FinishPragma is Finish with an explicit implementation-selection pragma,
// mirroring X10's @Pragma(Pragma.FINISH_*) annotations (§3.1). The chosen
// pattern must match how body actually spawns; with Config.CheckPatterns
// enabled, contract violations panic.
func (c *Ctx) FinishPragma(p Pattern, body func(*Ctx)) error {
	pl := c.pl
	id := finishID{Home: pl.id, Seq: pl.finSeq.Add(1)}
	ref := finRef{ID: id, Pattern: p}

	// Observability: one span per finish (begin at entry, end at
	// quiescence) plus per-pattern count and latency metrics. The span id
	// is allocated up front and travels inside finRef so every governed
	// activity — local or remote — records this finish as its span
	// parent, and the finish itself hangs under the enclosing scope.
	tr := c.rt.tracer
	m := c.rt.m
	var t0 int64
	var wall int64
	if tr != nil {
		t0 = tr.Now()
		ref.Span = tr.NextID()
	} else if m != nil {
		wall = c.rt.now()
	}

	var root rootFinish
	switch p {
	case PatternDefault:
		root = newDefaultRoot(c.rt, ref, false)
	case PatternDense:
		root = newDefaultRoot(c.rt, ref, true)
	case PatternAsync:
		root = newCounterRoot(c.rt, ref, counterAsync)
	case PatternHere:
		root = newCounterRoot(c.rt, ref, counterHere)
	case PatternLocal:
		root = newCounterRoot(c.rt, ref, counterLocal)
	case PatternSPMD:
		root = newCounterRoot(c.rt, ref, counterSPMD)
	default:
		panic(fmt.Sprintf("core: unknown finish pattern %v", p))
	}

	pl.finMu.Lock()
	pl.roots[id] = root
	pl.finMu.Unlock()

	if f := c.rt.fids; f != nil {
		c.rt.flight.Record1(f.finishName[p], f.catFinish, 'B', int(pl.id), 0, 0,
			f.kSeq, int64(id.Seq))
	}

	// Causal registry (distributed tracing only): the finish scope
	// itself is a link in stall chains, keyed by its own id so a stalled
	// root's chain starts at the finish span. The nil guard sits at the
	// call site so the name concatenation doesn't allocate when the
	// registry is off.
	if c.rt.causal != nil {
		c.rt.causal.add(CausalSpan{Span: ref.Span, Parent: c.span, Name: "finish." + p.metricKey(),
			Place: pl.id, Src: pl.id, Home: id.Home, Seq: id.Seq, Start: t0})
	}

	// The body runs in the current activity with the new finish
	// installed as governing scope for its spawns. The finish span also
	// becomes the body's tracing scope, so nested finishes and extension
	// spans (GLB steals) opened by the body attach under it.
	inner := &Ctx{rt: c.rt, pl: pl, fin: ref, span: ref.Span}
	// With profiling on, the body runs with the pattern label switched
	// to the new finish's pattern (place/kind/app stay inherited), so
	// CPU burned directly in a finish body — not in a spawned activity —
	// is attributed to the pattern that governs it.
	var bodyErr error
	if pr := c.rt.prof; pr != nil {
		bodyErr = pr.RunPattern(c.profCtx, p.metricKey(), func(pc context.Context) error {
			inner.profCtx = pc
			return runBody(inner, body)
		})
	} else {
		bodyErr = runBody(inner, body)
	}

	err := root.wait(pl)

	pl.finMu.Lock()
	delete(pl.roots, id)
	pl.finMu.Unlock()

	if f := c.rt.fids; f != nil {
		c.rt.flight.Record1(f.finishName[p], f.catFinish, 'E', int(pl.id), 0, 0,
			f.kSeq, int64(id.Seq))
	}
	if tr != nil {
		tr.CompleteEdge("finish."+p.metricKey(), "finish", int(pl.id), ref.Span, t0,
			c.span, obs.EdgeChild)
	}
	c.rt.causal.retire(ref.Span)
	if m != nil {
		var us uint64
		if tr != nil {
			us = uint64((tr.Now() - t0) / 1e3)
		} else {
			us = uint64((c.rt.now() - wall) / 1e3)
		}
		m.finishCount[p].Inc()
		m.finishUs[p].Observe(us)
		if pm := pl.pm; pm != nil {
			pm.finishCount[p].Inc()
			pm.finishUs[p].Observe(us)
		}
	}

	return combineErrors(bodyErr, err)
}

// finEvent dispatches an activity life-cycle event to the governing finish
// machinery: directly to the root when raised at the home place, otherwise
// to the per-place proxy of the distributed protocol. ctx is the activity
// raising the event; it is nil for evRemoteBegin (the activity does not
// exist yet at arrival time).
//
// It reports whether the event reached live finish machinery; false means
// the finish was orphaned by a place death (see dispatchFinEvent) and the
// caller must skip the spawn the event would have authorized. Terminations
// always return through the accounting below even when orphaned: their
// begin was counted, so their completion must be too, keeping the
// survivor-restricted conservation oracle exact.
func (rt *Runtime) finEvent(fin finRef, pl *place, kind finEventKind, other Place, err error, ctx *Ctx) bool {
	if !fin.valid() {
		panic("core: activity has no governing finish")
	}
	// Conservation accounting: every governed activity is counted exactly
	// once as spawned (at its spawn site) and once as completed (at its
	// termination site). A termination is counted before it is
	// dispatched, because its dispatch may release the finish, and an
	// oracle reading the counts once the finish returns must see it;
	// terminations raised at a live place always count. Spawn-kind
	// events cannot release a finish, and the activity they authorize
	// starts only after finEvent returns, so they count after dispatch,
	// and only when delivered (an undelivered spawn event means no
	// activity ever runs). evRemoteBegin is the same activity as the
	// matching evRemoteSpawn and is deliberately not counted globally; it
	// is what begins the activity at its executing place, so it is what
	// the per-place begun counter tracks.
	if kind == evTerminate && !rt.PlaceDead(pl.id) {
		rt.acts[fin.Pattern].completed.Add(1)
		rt.placeActs[pl.id].completed.Add(1)
	}
	delivered := rt.dispatchFinEvent(fin, pl, kind, other, err, ctx)
	if delivered {
		switch kind {
		case evLocalSpawn, evRemoteSpawn:
			rt.acts[fin.Pattern].spawned.Add(1)
		}
		if kind == evLocalSpawn || kind == evRemoteBegin {
			rt.placeActs[pl.id].begun.Add(1)
		}
	}
	return delivered
}

// panic-message helpers shared by the dispatch paths (finish.go and
// resilient.go keep identical diagnostics).
func unknownFinishPanic(kind finEventKind, fin finRef) string {
	return fmt.Sprintf("core: %v event for unknown finish %+v at home", kind, fin)
}

func localEscapedPanic(fin finRef, pl *place) string {
	return fmt.Sprintf("core: FINISH_LOCAL governed activity reached place %d (home %d)",
		pl.id, fin.ID.Home)
}

func badPatternPanic(fin finRef) string {
	return fmt.Sprintf("core: bad pattern %v", fin.Pattern)
}

func panicSendFailure(src, dst Place, err error) {
	panic(fmt.Sprintf("core: transport send %d->%d: %v", src, dst, err))
}

// onFinishCtl is the transport handler for finish-protocol control traffic.
func (rt *Runtime) onFinishCtl(src, dst int, payload any) {
	pl := rt.places[dst]
	if m := rt.m; m != nil {
		m.ctlRecv.Inc()
	}
	if pm := pl.pm; pm != nil {
		pm.ctlRecv.Inc()
	}
	if f := rt.fids; f != nil {
		if name := f.ctlFlightName(payload); name != 0 {
			rt.flight.Record1(name, f.catFinish, 'i', dst, 0, 0, f.kSrc, int64(src))
		}
	}
	if tr := rt.tracer; tr != nil {
		// Termination credits (counter-pattern ctlDone, cumulative
		// snapshots) are the edges of the quiescence wait; routed and
		// cleanup traffic is bookkeeping.
		edge := obs.EdgeNone
		switch payload.(type) {
		case ctlDone, ctlSnapshot:
			edge = obs.EdgeCredit
		}
		tr.InstantEdge("finish.ctl", "finish", dst, 0, edge,
			obs.Arg{Key: "src", Val: int64(src)})
		// Distributed tracing: land the flow-end on the place's control
		// lane, linking the sender's 's' to this arrival.
		tr.RecvCtx(ctlTC(payload), "flow.ctl", "finish", dst, 0,
			obs.Arg{Key: "src", Val: int64(src)})
	}
	switch m := payload.(type) {
	case ctlRouted:
		rt.routeDense(pl, m)
	case ctlCleanup:
		pl.finMu.Lock()
		delete(pl.proxies, m.ID)
		pl.finMu.Unlock()
	default:
		id := ctlFinishID(payload)
		pl.finMu.Lock()
		root, ok := pl.roots[id]
		pl.finMu.Unlock()
		if !ok {
			// A token-neutral error report (FINISH_HERE, N == 0) may race
			// with root completion when an activity panics after passing
			// its token home; the finish has already succeeded, so the
			// straggler is dropped. Likewise a cumulative snapshot: the
			// vector protocol completes on reconciled totals, so a
			// snapshot overtaken by a newer epoch (network reordering or
			// chaos-injected delay) can trail in after the root is gone
			// and is stale by construction. Anything else is a protocol
			// bug: counter-pattern credits (ctlDone, N != 0) are never
			// reissued, so losing their root means losing tokens.
			if d, isDone := payload.(ctlDone); isDone && d.N == 0 {
				return
			}
			if s, isSnap := payload.(ctlSnapshot); isSnap {
				// Under a place death, the sender may be a proxy that an
				// in-flight spawn re-created after the force-terminated
				// root's cleanup burst; answer with another cleanup so the
				// straggler state is reaped instead of leaking.
				if rt.anyDeath() {
					rt.reapProxy(pl.id, id, s.From)
				}
				return
			}
			if rt.anyDeath() {
				// After a place death a root can fire early on forgiven
				// credit (or force-fire entirely) and deregister while
				// token-bearing credits are still in flight; the tokens
				// were already returned by forgiveness, so the straggler
				// is dropped rather than treated as a protocol bug.
				return
			}
			panic(fmt.Sprintf("core: control message %T for unknown finish %+v at place %d",
				payload, id, dst))
		}
		root.ctl(Place(src), payload)
	}
}

// control message payloads ---------------------------------------------

// ctlSnapshot is the cumulative quiescence report of the vector protocol
// (PatternDefault after promotion, PatternDense): sent by a place when its
// last live governed activity terminates.
type ctlSnapshot struct {
	ID    finishID
	From  Place
	Epoch uint64
	// Recv is the cumulative count of remote activities begun at From.
	Recv uint64
	// Local is the cumulative count of local spawns performed at From
	// under this finish. It plays no role in termination detection; the
	// finish-shape profiler (FinishProfiled) consumes it.
	Local uint64
	// Sent maps destination place to the cumulative count of remote
	// spawns From has performed under this finish.
	Sent map[Place]uint64
	// RecvFrom maps source place to the cumulative count of remote
	// activities begun at From per sender — Recv broken out by origin.
	// The fault-free termination check only needs the aggregate Recv;
	// the resilient check needs per-source provenance so a dead place's
	// sends and receives can be excluded exactly (see resilient.go).
	RecvFrom map[Place]uint64
	// Errs is the cumulative list of activity errors collected at From.
	Errs []error
	// TC is the distributed trace context stamped on the message that
	// carried this snapshot directly (non-dense routing); snapshots
	// travelling inside a ctlRouted envelope leave it zero and the
	// envelope carries the per-hop context instead.
	TC obs.SpanContext
}

// ctlRouted wraps snapshots for FINISH_DENSE software routing. Stage 0
// messages travel place->master(src); stage 1 master(src)->master(home);
// stage 2 master(home)->home, where they are applied.
type ctlRouted struct {
	ID    finishID
	Snaps []ctlSnapshot
	// Hops is the remaining route; Hops[0] is the place currently
	// processing the message.
	Hops []Place
	// Flush marks a master's self-addressed coalescing marker: forward
	// everything buffered for (ID, Hops[1:]) now.
	Flush bool
	// TC is the per-hop distributed trace context: each forward is its
	// own message and gets a fresh context at the forwarding place.
	TC obs.SpanContext
}

// ctlDone reports remote activity completions for the counter-based
// patterns (FINISH_ASYNC, FINISH_SPMD, and FINISH_HERE token releases).
type ctlDone struct {
	ID  finishID
	N   int
	Err error
	// TC is the distributed trace context of the completing place.
	TC obs.SpanContext
}

// ctlCleanup tells a place to drop its proxy state for a finished finish.
type ctlCleanup struct {
	ID finishID
	// TC is the distributed trace context of the cleanup burst.
	TC obs.SpanContext
}

// ctlTC extracts the distributed trace context of a control payload
// (zero when the sender had tracing off).
func ctlTC(payload any) obs.SpanContext {
	switch m := payload.(type) {
	case ctlSnapshot:
		return m.TC
	case ctlDone:
		return m.TC
	case ctlRouted:
		return m.TC
	case ctlCleanup:
		return m.TC
	default:
		return obs.SpanContext{}
	}
}

func ctlFinishID(payload any) finishID {
	switch m := payload.(type) {
	case ctlSnapshot:
		return m.ID
	case ctlDone:
		return m.ID
	case ctlRouted:
		return m.ID
	case ctlCleanup:
		return m.ID
	default:
		panic(fmt.Sprintf("core: unknown control payload %T", payload))
	}
}

// waiter is a one-shot completion latch shared by the root implementations.
type waiter struct {
	mu      sync.Mutex
	done    bool
	ch      chan struct{}
	errs    []error
	waiting bool
}

func newWaiter() *waiter { return &waiter{ch: make(chan struct{})} }

// fire marks completion; idempotent.
func (w *waiter) fire() {
	if !w.done {
		w.done = true
		close(w.ch)
	}
}

// block waits cooperatively (releasing the place's scheduler slot).
func (w *waiter) block(pl *place) error {
	w.mu.Lock()
	w.waiting = true
	done := w.done
	w.mu.Unlock()
	if !done {
		pl.sched.Blocking(func() { <-w.ch })
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return combineErrors(w.errs...)
}

// estimated wire sizes for control messages (for bandwidth accounting).
func snapshotBytes(s ctlSnapshot) int {
	return 32 + 16*len(s.Sent) + 16*len(s.RecvFrom) + 16*len(s.Errs)
}

const ctlDoneBytes = 24
