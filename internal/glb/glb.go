// Package glb implements lifeline-based global load balancing — the GLB
// library of §3.4 and §6 of "X10 and APGAS at Petascale", derived from
// Saraswat et al., "Lifeline-based global load balancing" (PPoPP 2011),
// with the refinements that made it scale to the full Power 775:
//
//   - the root finish governing the traversal uses FINISH_DENSE, so its
//     control traffic is shaped through per-host master places;
//   - steal attempts are round trips accounted with FINISH_HERE-style
//     token passing (outgoing request followed by incoming response), so
//     the root finish is oblivious to rebalancing from successful random
//     steals;
//   - each place draws random victims from a precomputed bounded set (at
//     most 1,024 entries) to bound the out-degree of the communication
//     graph — without the bound the paper observed severe network
//     degradation at scale;
//   - lifelines are the edges of a hypercube over places: low diameter to
//     propagate work quickly, low degree to bound requests in flight.
//
// The protocol: every place runs one worker processing its own task bag.
// An idle worker first makes a bounded number of synchronous random steal
// attempts; if all fail it sends asynchronous requests to its lifelines
// and dies. Lifelines have memory: when a loaded place notices recorded
// lifeline requests it splits its bag and ships loot, resuscitating dead
// workers. Because workers die when unsuccessful, overall termination is
// exactly the termination of the root finish — one finish construct
// detects the end of the whole irregular computation.
package glb

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"apgas/internal/core"
	"apgas/internal/obs"
)

// TaskBag is the work container a Balancer operates on (GLB's TaskQueue).
// Implementations own both the pending work and any accumulated results.
// All methods are called with the owning place's lock held; they must not
// block or call back into the balancer.
type TaskBag interface {
	// Process executes up to quantum units of work, returning the number
	// actually executed (0 when the bag is empty).
	Process(quantum int) int
	// Size returns the (approximate) number of pending work units.
	Size() int64
	// Split extracts a portion of the pending work for a thief, or nil
	// when the bag has too little to share.
	Split() TaskBag
	// Merge adds stolen work to the bag.
	Merge(loot TaskBag)
}

// Config tunes the balancer. Zero values select the defaults; the ablation
// benchmarks override individual knobs.
type Config struct {
	// Quantum is the number of work units processed between scheduler
	// interactions (default 512).
	Quantum int
	// RandomAttempts is the number of synchronous random steal attempts
	// before falling back to lifelines (w in the PPoPP'11 paper;
	// default 2).
	RandomAttempts int
	// MaxVictims bounds each place's precomputed random victim set, the
	// paper's anti-degradation refinement (default 1024; places with
	// fewer peers use all of them). Zero keeps the default; a negative
	// value removes the bound (the legacy behaviour, for ablations).
	MaxVictims int
	// Lifelines is the number of outgoing lifeline edges per place.
	// Zero selects the hypercube dimension ceil(log2 places).
	Lifelines int
	// DenseFinish selects FINISH_DENSE for the root finish (the paper's
	// configuration). When false the default finish algorithm is used —
	// the ablation showing why FINISH_DENSE matters.
	DenseFinish bool
	// Seed drives victim-sequence randomness (default 1).
	Seed int64
}

func (c *Config) applyDefaults(places int) {
	if c.Quantum <= 0 {
		c.Quantum = 512
	}
	if c.RandomAttempts <= 0 {
		c.RandomAttempts = 2
	}
	switch {
	case c.MaxVictims == 0:
		c.MaxVictims = 1024
	case c.MaxVictims < 0:
		c.MaxVictims = places // unbounded: everyone is a candidate victim
	}
	if c.Lifelines <= 0 {
		c.Lifelines = hypercubeDims(places)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Stats aggregates per-place balancer counters after a run.
type Stats struct {
	Processed          int64 // total work units executed
	StealAttempts      int64 // synchronous random steal attempts
	StealSuccesses     int64
	LifelineRequests   int64 // lifeline request messages sent
	LifelineDeliveries int64 // loot shipments along lifelines
	Resuscitations     int64 // workers revived by lifeline loot
}

// Balancer coordinates one load-balanced computation over a runtime.
type Balancer struct {
	rt     *core.Runtime
	cfg    Config
	states []*placeState

	// orphanMu guards orphans: loot parcels reaped from links severed by
	// a place death, awaiting conservative re-execution (see placeDeath
	// and the adoption rounds in Run).
	orphanMu sync.Mutex
	orphans  []TaskBag
	// reapMu serializes placeDeath, so a caller that finds a place
	// already marked dead knows its reap has finished.
	reapMu sync.Mutex

	// observability (nil handles when the runtime has no obs layer)
	tr *obs.Tracer
	m  balancerMetrics
	// prof stamps worker bodies with kind=glb.worker pprof labels (nil
	// when profiling is off); patKey is the root finish's pattern label.
	// Stolen work executes inside the thief's worker loop, so its
	// samples carry the thief's place label — cost incurred on the thief
	// is attributed to the thief, which is exactly the accounting plain
	// finish-pattern labels cannot provide.
	prof   *obs.Profiler
	patKey string
}

// balancerMetrics mirrors the per-place Stats counters into the metrics
// registry live, under glb.*. Handles are nil (no-op) when disabled.
type balancerMetrics struct {
	processed          *obs.Counter // glb.processed
	stealAttempts      *obs.Counter // glb.steal.attempts
	stealSuccesses     *obs.Counter // glb.steal.successes
	lifelineRequests   *obs.Counter // glb.lifeline.requests
	lifelineDeliveries *obs.Counter // glb.lifeline.deliveries
	resuscitations     *obs.Counter // glb.resuscitations
	victims            *obs.Counter // glb.victims (size of the bounded victim set)
}

// placeMetrics is one place's live view of the same counters. Each
// counter is registered twice: in the place's own registry under the
// unqualified glb.* name (so the telemetry plane merges it across places
// with min/max attribution), and in the global registry under the
// place-indexed glb.p<i>.* name (so single-registry dumps still break
// stealing behaviour down by place).
type placeMetrics struct {
	processed          obs.Counter
	stealAttempts      obs.Counter
	stealSuccesses     obs.Counter
	lifelineRequests   obs.Counter
	lifelineDeliveries obs.Counter
	resuscitations     obs.Counter
	victims            obs.Counter
}

// register installs the counters in r with the given name prefix
// ("glb." or "glb.p<i>.").
func (m *placeMetrics) register(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+"processed", &m.processed)
	r.RegisterCounter(prefix+"steal.attempts", &m.stealAttempts)
	r.RegisterCounter(prefix+"steal.successes", &m.stealSuccesses)
	r.RegisterCounter(prefix+"lifeline.requests", &m.lifelineRequests)
	r.RegisterCounter(prefix+"lifeline.deliveries", &m.lifelineDeliveries)
	r.RegisterCounter(prefix+"resuscitations", &m.resuscitations)
	r.RegisterCounter(prefix+"victims", &m.victims)
}

// placeState is the per-place side of the protocol.
type placeState struct {
	mu           sync.Mutex
	bag          TaskBag
	active       bool
	victims      []core.Place // bounded precomputed victim set
	victimCursor int
	lifelines    []core.Place        // outgoing lifeline edges
	lifelineReqs map[core.Place]bool // recorded incoming lifeline requests
	asked        map[core.Place]bool // lifelines this place has asked and not yet been served by

	// dead marks a place reaped by placeDeath: its worker exits at the
	// next scheduler interaction and no further loot is shipped to or
	// split from it. bagDrained records that the unprocessed remainder of
	// a dead place's bag has been handed to an adoption round (exactly
	// once).
	dead       bool
	bagDrained bool
	// Outbound loot ledger: every parcel shipped to a thief is recorded
	// under a per-sender monotone sequence number and erased when the
	// thief acknowledges the merge. lootIn holds the highest sequence
	// merged from each sender. Per-link FIFO delivery makes the pair a
	// complete account of which shipments survived a place death: a
	// parcel in a dead place's ledger with seq > the thief's lootIn entry
	// was provably never merged and is safe to re-execute.
	lootSeq uint64
	lootOut map[core.Place][]lootParcel
	lootIn  map[core.Place]uint64

	stats Stats
	pm    placeMetrics

	// diedAt is the tracer timestamp at which this place's worker died
	// (asked its lifelines and returned); the resuscitation path closes
	// a glb.lifeline.wait span from it. Only meaningful while !active
	// and only when tracing is enabled.
	diedAt int64
}

// lootParcel is one outbound loot shipment awaiting acknowledgement.
type lootParcel struct {
	seq uint64
	bag TaskBag
}

// recordLootLocked logs an outbound parcel before it is shipped; caller
// holds st.mu.
func (st *placeState) recordLootLocked(to core.Place, bag TaskBag) uint64 {
	st.lootSeq++
	if st.lootOut == nil {
		st.lootOut = make(map[core.Place][]lootParcel)
	}
	st.lootOut[to] = append(st.lootOut[to], lootParcel{seq: st.lootSeq, bag: bag})
	return st.lootSeq
}

// ackLocked erases an acknowledged parcel; caller holds st.mu.
func (st *placeState) ackLocked(to core.Place, seq uint64) {
	parcels := st.lootOut[to]
	for i, p := range parcels {
		if p.seq == seq {
			st.lootOut[to] = append(parcels[:i], parcels[i+1:]...)
			return
		}
	}
}

// noteMergedLocked records the highest parcel sequence merged from a
// sender; caller holds st.mu.
func (st *placeState) noteMergedLocked(from core.Place, seq uint64) {
	if st.lootIn == nil {
		st.lootIn = make(map[core.Place]uint64)
	}
	if seq > st.lootIn[from] {
		st.lootIn[from] = seq
	}
}

// New creates a balancer and builds the per-place bags with makeBag (run
// once per place; typically the root place's bag holds the initial work
// and all others start empty).
func New(rt *core.Runtime, cfg Config, makeBag func(core.Place) TaskBag) *Balancer {
	n := rt.NumPlaces()
	cfg.applyDefaults(n)
	b := &Balancer{rt: rt, cfg: cfg, states: make([]*placeState, n)}
	b.tr = rt.Tracer()
	b.prof = rt.Profiler()
	// Registry handles are nil-safe no-ops when the runtime carries no
	// observability layer (obs.Registry's methods accept a nil receiver).
	reg := rt.Obs().Registry()
	b.m = balancerMetrics{
		processed:          reg.Counter("glb.processed"),
		stealAttempts:      reg.Counter("glb.steal.attempts"),
		stealSuccesses:     reg.Counter("glb.steal.successes"),
		lifelineRequests:   reg.Counter("glb.lifeline.requests"),
		lifelineDeliveries: reg.Counter("glb.lifeline.deliveries"),
		resuscitations:     reg.Counter("glb.resuscitations"),
		victims:            reg.Counter("glb.victims"),
	}
	rng := newSplitMix(uint64(cfg.Seed))
	for p := 0; p < n; p++ {
		b.states[p] = &placeState{
			bag:          makeBag(core.Place(p)),
			victims:      victimSet(core.Place(p), n, cfg.MaxVictims, rng.next()),
			lifelines:    lifelineEdges(core.Place(p), n, cfg.Lifelines),
			lifelineReqs: make(map[core.Place]bool),
			asked:        make(map[core.Place]bool),
		}
		st := b.states[p]
		st.pm.register(rt.Obs().Place(p), "glb.")
		st.pm.register(reg, "glb.p"+strconv.Itoa(p)+".")
		st.pm.victims.Add(uint64(len(st.victims)))
		b.m.victims.Add(uint64(len(st.victims)))
	}
	// Victim-death re-homing: when the runtime reports a place dead, reap
	// it from the balancer graph and queue its orphaned work for the
	// adoption rounds in Run.
	rt.NotifyPlaceDeath(b.placeDeath)
	return b
}

// BagAt returns place p's bag, for result collection after Run completes.
func (b *Balancer) BagAt(p core.Place) TaskBag { return b.states[p].bag }

// Stats sums the per-place counters. Call after Run.
func (b *Balancer) Stats() Stats {
	var s Stats
	for _, st := range b.states {
		s.Processed += st.stats.Processed
		s.StealAttempts += st.stats.StealAttempts
		s.StealSuccesses += st.stats.StealSuccesses
		s.LifelineRequests += st.stats.LifelineRequests
		s.LifelineDeliveries += st.stats.LifelineDeliveries
		s.Resuscitations += st.stats.Resuscitations
	}
	return s
}

// Run executes the computation: workers start at every place under a
// single root finish, and Run returns when the whole distributed traversal
// has quiesced. It must be called from within rt.Run.
//
// If a place dies mid-run the root finish surfaces core.ErrPlaceDead and
// quiesces over the survivors; Run then performs adoption rounds — the
// victim's unprocessed bag remainder plus any loot parcels stranded on
// severed links are merged into a surviving place and re-executed under a
// fresh finish. The parcel ledger is the idempotence guard: only work the
// victim provably never completed is re-run (processed units had left its
// bag; merged parcels had been acknowledged).
func (b *Balancer) Run(ctx *core.Ctx) error {
	pattern := core.PatternDefault
	if b.cfg.DenseFinish {
		pattern = core.PatternDense
	}
	b.patKey = pattern.MetricKey()
	var errs []error
	if err := b.runPhase(ctx, pattern, nil); err != nil {
		errs = append(errs, err)
	}
	for round := 0; round < b.rt.NumPlaces(); round++ {
		orphans := b.drainOrphans()
		if len(orphans) == 0 {
			break
		}
		if err := b.runPhase(ctx, pattern, orphans); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// runPhase runs one worker phase over the surviving places. A non-empty
// adopt slice is first merged into the lowest-numbered survivor's bag;
// random steals then spread the adopted work as usual.
func (b *Balancer) runPhase(ctx *core.Ctx, pattern core.Pattern, adopt []TaskBag) error {
	return ctx.FinishPragma(pattern, func(c *core.Ctx) {
		if len(adopt) > 0 {
			adopter := b.firstLive()
			if adopter < 0 {
				return // every place is dead; nothing can re-execute
			}
			as := b.states[adopter]
			as.mu.Lock()
			for _, o := range adopt {
				as.bag.Merge(o)
			}
			as.mu.Unlock()
		}
		for _, p := range c.Places() {
			p := p
			if b.rt.PlaceDead(p) {
				continue
			}
			c.AtAsync(p, func(cc *core.Ctx) {
				st := b.states[p]
				st.mu.Lock()
				if st.dead {
					st.mu.Unlock()
					return
				}
				st.active = true
				st.mu.Unlock()
				b.runWorker(cc, st, int(p))
			})
		}
	})
}

// drainOrphans collects all pending orphaned work: parcels reaped by
// placeDeath plus the unprocessed remainder of each dead place's bag,
// taken exactly once. The state lock serializes the bag hand-off against
// a dead worker's final quantum.
func (b *Balancer) drainOrphans() []TaskBag {
	// A death can release the phase's finish before the runtime notifies
	// its subscribers, so reap every place the runtime reports dead here
	// rather than rely on the notification having run.
	for p := range b.states {
		if b.rt.PlaceDead(core.Place(p)) {
			b.placeDeath(core.Place(p))
		}
	}
	b.orphanMu.Lock()
	orphans := b.orphans
	b.orphans = nil
	b.orphanMu.Unlock()
	for _, st := range b.states {
		st.mu.Lock()
		if st.dead && !st.bagDrained {
			st.bagDrained = true
			if st.bag.Size() > 0 {
				orphans = append(orphans, st.bag)
			}
		}
		st.mu.Unlock()
	}
	return orphans
}

// firstLive returns the lowest-numbered surviving place, or -1.
func (b *Balancer) firstLive() core.Place {
	for p := range b.states {
		if !b.rt.PlaceDead(core.Place(p)) {
			return core.Place(p)
		}
	}
	return -1
}

// placeDeath reaps a dead place from the balancer graph: its worker is
// told to exit, survivors' lifeline edges are rewired around it, and loot
// parcels stranded on severed links — shipped but provably never merged —
// are queued for conservative re-execution. Registered with the runtime's
// death notifier in New, and called again by drainOrphans; idempotent.
func (b *Balancer) placeDeath(v core.Place) {
	if int(v) >= len(b.states) {
		return
	}
	b.reapMu.Lock()
	defer b.reapMu.Unlock()
	vs := b.states[v]
	vs.mu.Lock()
	if vs.dead {
		vs.mu.Unlock()
		return
	}
	vs.dead = true
	vs.active = false
	lootIn := make(map[core.Place]uint64, len(vs.lootIn))
	for p, s := range vs.lootIn {
		lootIn[p] = s
	}
	lootOut := vs.lootOut
	vs.lootOut = nil
	vs.mu.Unlock()

	var orphans []TaskBag
	// Loot the victim split off and shipped whose merge it never learned
	// of: if the thief merged it, the bag is accounted for there; the
	// unacknowledged-but-merged window is resolved by the thief's lootIn
	// high-water mark.
	for t, parcels := range lootOut {
		ts := b.states[t]
		ts.mu.Lock()
		merged := ts.lootIn[v]
		ts.mu.Unlock()
		for _, p := range parcels {
			if p.seq > merged {
				orphans = append(orphans, p.bag)
			}
		}
	}
	// Loot survivors shipped toward the victim that it never merged, plus
	// every survivor-side edge pointing at it.
	for q, s := range b.states {
		if core.Place(q) == v {
			continue
		}
		s.mu.Lock()
		if s.dead {
			s.mu.Unlock()
			continue
		}
		for _, p := range s.lootOut[v] {
			if p.seq > lootIn[core.Place(q)] {
				orphans = append(orphans, p.bag)
			}
		}
		delete(s.lootOut, v)
		delete(s.lifelineReqs, v)
		delete(s.asked, v)
		s.lifelines = b.rewireLifelines(core.Place(q), s.lifelines)
		s.mu.Unlock()
	}
	if len(orphans) > 0 {
		b.orphanMu.Lock()
		b.orphans = append(b.orphans, orphans...)
		b.orphanMu.Unlock()
	}
}

// rewireLifelines drops dead targets from a place's lifeline set and
// restores its out-degree with the next live places around the ring,
// keeping the distribution graph connected over the survivors.
func (b *Balancer) rewireLifelines(self core.Place, cur []core.Place) []core.Place {
	n := len(b.states)
	want := len(cur)
	seen := map[core.Place]bool{self: true}
	out := cur[:0]
	for _, l := range cur {
		if !b.rt.PlaceDead(l) && !seen[l] {
			out = append(out, l)
			seen[l] = true
		}
	}
	for d := 1; d < n && len(out) < want; d++ {
		c := core.Place((int(self) + d) % n)
		if !b.rt.PlaceDead(c) && !seen[c] {
			out = append(out, c)
			seen[c] = true
		}
	}
	return out
}

// runWorker enters the worker loop at place p, relabeled kind=glb.worker
// when profiling is on so every quantum of bag processing — including
// stolen and lifeline-delivered work — is attributed to the place that
// actually executes it.
func (b *Balancer) runWorker(ctx *core.Ctx, st *placeState, p int) {
	if pr := b.prof; pr != nil {
		pr.Do(p, b.patKey, "glb.worker", func(pc context.Context) {
			old := ctx.SwapProfileContext(pc)
			defer ctx.SwapProfileContext(old)
			b.worker(ctx, st)
		})
		return
	}
	b.worker(ctx, st)
}

// worker is the main loop of one place: process, distribute along
// lifelines, steal randomly, and finally ask lifelines and die.
func (b *Balancer) worker(ctx *core.Ctx, st *placeState) {
	for {
		// Process until the bag drains, serving recorded lifeline
		// requests between quanta.
		for {
			st.mu.Lock()
			if st.dead {
				// Our place died under us; whatever remains in the bag is
				// adopted by the post-finish rounds in Run.
				st.mu.Unlock()
				return
			}
			n := st.bag.Process(b.cfg.Quantum)
			st.stats.Processed += int64(n)
			st.pm.processed.Add(uint64(n))
			b.m.processed.Add(uint64(n))
			if n > 0 {
				b.serveLifelinesLocked(ctx, st)
			}
			empty := st.bag.Size() == 0
			st.mu.Unlock()
			if empty {
				break
			}
		}

		// Random steal attempts against the bounded victim set.
		stolen := false
		for i := 0; i < b.cfg.RandomAttempts && !stolen; i++ {
			victim := b.nextVictim(st)
			if victim < 0 {
				break
			}
			stolen = b.randomSteal(ctx, st, victim)
		}
		if stolen {
			continue
		}

		// Establish lifelines and die. Loot arriving later resuscitates
		// the worker with a fresh activity.
		st.mu.Lock()
		if st.dead {
			st.mu.Unlock()
			return
		}
		if st.bag.Size() > 0 {
			// Loot landed while we were out stealing; keep working so
			// no merged work is ever abandoned by a dying worker.
			st.mu.Unlock()
			continue
		}
		st.active = false
		if b.tr != nil {
			st.diedAt = b.tr.Now()
		}
		requests := make([]core.Place, 0, len(st.lifelines))
		for _, l := range st.lifelines {
			if !st.asked[l] {
				st.asked[l] = true
				requests = append(requests, l)
			}
		}
		st.stats.LifelineRequests += int64(len(requests))
		st.pm.lifelineRequests.Add(uint64(len(requests)))
		b.m.lifelineRequests.Add(uint64(len(requests)))
		st.mu.Unlock()
		me := ctx.Place()
		for _, l := range requests {
			if b.rt.PlaceDead(l) {
				continue
			}
			if b.tr != nil {
				b.tr.Instant("glb.lifeline.request", "glb", int(me),
					obs.Arg{Key: "lifeline", Val: int64(l)})
			}
			b.sendLifelineRequest(ctx, me, l)
		}
		return
	}
}

// randomSteal performs one synchronous steal attempt: a round trip to the
// victim under a FINISH_HERE, merging any loot into st's bag. It reports
// whether work was obtained.
func (b *Balancer) randomSteal(ctx *core.Ctx, st *placeState, victim core.Place) bool {
	st.mu.Lock()
	st.stats.StealAttempts++
	st.mu.Unlock()
	st.pm.stealAttempts.Inc()
	b.m.stealAttempts.Inc()

	home := ctx.Place()
	// The steal round-trip is one span at the thief: FINISH_HERE request
	// out, response (loot or refusal) back. The span id is allocated up
	// front so the request/response flow events parent under it.
	var t0 int64
	var stealTid uint64
	sctx := ctx
	if b.tr != nil {
		t0 = b.tr.Now()
		stealTid = b.tr.NextID()
		sctx = ctx.WithTraceSpan(stealTid)
	}
	var loot TaskBag
	var lootSeq uint64
	vs := b.states[victim]
	err := sctx.FinishPragma(core.PatternHere, func(c *core.Ctx) {
		c.AtDirect(victim, 16, func(cv *core.Ctx) {
			vs.mu.Lock()
			var l TaskBag
			var seq uint64
			if vs.active && !vs.dead {
				l = vs.bag.Split()
				if l != nil {
					seq = vs.recordLootLocked(home, l)
				}
			}
			vs.mu.Unlock()
			cv.AtDirect(home, lootBytes(l), func(*core.Ctx) {
				loot, lootSeq = l, seq
			})
		})
	})
	if err != nil {
		if errors.Is(err, core.ErrPlaceDead) {
			// The victim (or our own place) died mid-steal: a failed
			// attempt. Loot split off before the death sits unmerged in
			// the victim's outbound ledger and is reaped by placeDeath.
			return false
		}
		panic(fmt.Sprintf("glb: steal attempt failed: %v", err))
	}
	if b.tr != nil {
		ok := int64(0)
		if loot != nil {
			ok = 1
		}
		// A steal edge under the thief's worker activity: the critical-
		// path profiler buckets this round trip as steal time.
		b.tr.CompleteEdge("glb.steal", "glb", int(home), stealTid, t0,
			ctx.TraceSpan(), obs.EdgeSteal,
			obs.Arg{Key: "victim", Val: int64(victim)}, obs.Arg{Key: "ok", Val: ok})
	}
	if loot == nil {
		return false
	}
	st.mu.Lock()
	st.bag.Merge(loot)
	st.noteMergedLocked(victim, lootSeq)
	st.stats.StealSuccesses++
	st.mu.Unlock()
	st.pm.stealSuccesses.Inc()
	b.m.stealSuccesses.Inc()
	b.ackLoot(ctx, home, victim, lootSeq)
	return true
}

// ackLoot clears a merged parcel from the sender's outbound ledger so a
// later death of this place does not re-execute it. Uncounted: the ack is
// pure bookkeeping and must not hold the root finish open.
func (b *Balancer) ackLoot(ctx *core.Ctx, me, sender core.Place, seq uint64) {
	ss := b.states[sender]
	ctx.UncountedAsync(sender, func(*core.Ctx) {
		ss.mu.Lock()
		ss.ackLocked(me, seq)
		ss.mu.Unlock()
	})
}

// sendLifelineRequest records this place at lifeline l; if l currently has
// surplus it answers immediately.
func (b *Balancer) sendLifelineRequest(ctx *core.Ctx, thief, l core.Place) {
	ls := b.states[l]
	ctx.AtDirect(l, 16, func(cl *core.Ctx) {
		ls.mu.Lock()
		if ls.dead || b.rt.PlaceDead(thief) {
			ls.mu.Unlock()
			return
		}
		var loot TaskBag
		if ls.active {
			loot = ls.bag.Split()
		}
		if loot == nil {
			// Lifelines have memory: remember the thief for later.
			ls.lifelineReqs[thief] = true
			ls.mu.Unlock()
			return
		}
		seq := ls.recordLootLocked(thief, loot)
		ls.stats.LifelineDeliveries++
		ls.mu.Unlock()
		ls.pm.lifelineDeliveries.Inc()
		b.m.lifelineDeliveries.Inc()
		b.deliver(cl, cl.Place(), thief, loot, seq)
	})
}

// serveLifelinesLocked ships loot to recorded lifeline requesters while the
// bag has work to spare; the caller holds st.mu.
func (b *Balancer) serveLifelinesLocked(ctx *core.Ctx, st *placeState) {
	for thief := range st.lifelineReqs {
		// The dead-check and ledger record share st.mu with placeDeath's
		// reap, so a parcel is either provably skipped or provably reaped.
		if b.rt.PlaceDead(thief) {
			delete(st.lifelineReqs, thief)
			continue
		}
		loot := st.bag.Split()
		if loot == nil {
			return
		}
		delete(st.lifelineReqs, thief)
		seq := st.recordLootLocked(thief, loot)
		st.stats.LifelineDeliveries++
		st.pm.lifelineDeliveries.Inc()
		b.m.lifelineDeliveries.Inc()
		b.deliver(ctx, ctx.Place(), thief, loot, seq)
	}
}

// deliver ships loot to a thief under the root finish and resuscitates its
// worker if it has died — "resuscitation is also one async task".
func (b *Balancer) deliver(ctx *core.Ctx, from, thief core.Place, loot TaskBag, seq uint64) {
	ts := b.states[thief]
	ctx.AtDirect(thief, lootBytes(loot), func(ct *core.Ctx) {
		ts.mu.Lock()
		if ts.dead {
			// Unmerged and unacknowledged: the sender's ledger entry
			// stands, and placeDeath re-homes the loot.
			ts.mu.Unlock()
			return
		}
		ts.bag.Merge(loot)
		ts.noteMergedLocked(from, seq)
		revive := !ts.active
		var diedAt int64
		if revive {
			ts.active = true
			ts.stats.Resuscitations++
			diedAt = ts.diedAt
			// The lifeline that just fed us may be asked again later.
			for l := range ts.asked {
				delete(ts.asked, l)
			}
		}
		ts.mu.Unlock()
		if revive {
			ts.pm.resuscitations.Inc()
			b.m.resuscitations.Inc()
			if b.tr != nil {
				// The wait span covers worker death to resuscitation,
				// anchored under the root finish so the critical-path
				// profiler can bucket lifeline idle time.
				b.tr.CompleteEdge("glb.lifeline.wait", "glb", int(thief),
					b.tr.NextID(), diedAt, ct.FinishTraceSpan(), obs.EdgeLifeline)
				b.tr.Instant("glb.resuscitate", "glb", int(thief))
			}
			ct.Async(func(cw *core.Ctx) { b.runWorker(cw, ts, int(thief)) })
		}
		b.ackLoot(ct, thief, from, seq)
	})
}

// nextVictim returns the next live victim from the precomputed set, or -1
// when the place has no surviving peers.
func (b *Balancer) nextVictim(st *placeState) core.Place {
	for range st.victims {
		v := st.victims[st.victimCursor]
		st.victimCursor = (st.victimCursor + 1) % len(st.victims)
		if !b.rt.PlaceDead(v) {
			return v
		}
	}
	return -1
}

// lootBytes models the wire size of a loot shipment.
func lootBytes(l TaskBag) int {
	if l == nil {
		return 16
	}
	n := l.Size()
	if n > 1<<16 {
		n = 1 << 16
	}
	return 32 + int(n)*16
}
