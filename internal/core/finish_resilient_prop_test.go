package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// Property-based tests for resilient finish: the same randomized
// async/at trees as finish_prop_test.go, but with a seed-chosen place
// killed mid-run. The oracle weakens from exact completion counts to
// the survivor guarantees the resilience protocol makes:
//
//   - the finish quiesces (no hang) and reports ErrPlaceDead when the
//     death touched it, nil when it did not;
//   - no more activities complete than the structural oracle allows;
//   - after adoption, no finish roots, proxies, or dense buffers remain
//     on or about surviving places;
//   - every surviving place's begun/completed activity ledger balances
//     (spawns lost toward the victim are forgiven by adoption, never
//     leaked as phantom credits on a survivor).

// killAtCount kills victim on the runtime's transport once the shared
// counter reaches threshold. Pre-kill execution cannot stall, so the
// threshold is always reached; the returned channel closes after the
// kill has been issued.
func killAtCount(rt *Runtime, victim Place, n *atomic.Int64, threshold int64) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n.Load() < threshold {
			time.Sleep(20 * time.Microsecond)
		}
		_ = rt.Transport().KillPlace(int(victim))
	}()
	return done
}

// awaitDeathProcessed waits for the channel a NotifyPlaceDeath
// subscription closes — the runtime's signal that adoption finished.
func awaitDeathProcessed(t *testing.T, ch chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("runtime never finished processing the place death")
	}
}

// acceptDeathErr passes a finish outcome that is either clean or the
// typed death report; anything else is a protocol violation.
func acceptDeathErr(t *testing.T, trial int, what string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrPlaceDead) {
		t.Errorf("trial %d: %s: %v (want nil or ErrPlaceDead)", trial, what, err)
	}
}

// victimDescent runs a property tree while recording, per place,
// whether an activity descended from the victim — spawned by an
// activity running there, or by one of that activity's descendants —
// was sent to it. The mark is set before the spawn, so it precedes
// the child's begun count.
type victimDescent struct {
	victim Place
	sent   []atomic.Bool
}

func newVictimDescent(victim Place, places int) *victimDescent {
	return &victimDescent{victim: victim, sent: make([]atomic.Bool, places)}
}

// exec is execPropTree with provenance: fromVictim says whether the
// running activity descends from the victim.
func (vd *victimDescent) exec(c *Ctx, n *propNode, count *atomic.Int64, fromVictim bool) {
	count.Add(1)
	fromVictim = fromVictim || c.Place() == vd.victim
	for _, ch := range n.children {
		ch := ch
		if fromVictim {
			vd.sent[ch.place].Store(true)
		}
		if ch.place == int(c.Place()) {
			c.Async(func(cc *Ctx) { vd.exec(cc, ch, count, fromVictim) })
		} else {
			c.AtAsync(Place(ch.place), func(cc *Ctx) { vd.exec(cc, ch, count, fromVictim) })
		}
	}
}

// awaitVictimDescendants waits, at each surviving place late names,
// until its activity ledger balances and its scheduler is idle. A
// finish that forgave the victim's credit can release while activities
// the victim spawned toward a survivor, and their descendants, still
// run there (defaultRoot.checkLocked): those places' ledgers are only
// complete once such activities end. Places late does not name are not
// waited for, so an early release of live-to-live activities still
// shows up as an unbalanced ledger.
func awaitVictimDescendants(t *testing.T, rt *Runtime, late func(Place) bool) {
	t.Helper()
	settled := func() bool {
		for _, pc := range rt.PlaceActivityCounts() {
			if !late(pc.Place) || rt.PlaceDead(pc.Place) {
				continue
			}
			sp, co := rt.places[pc.Place].sched.Stats()
			if !pc.Balanced() || sp != co {
				return false
			}
		}
		return true
	}
	// A descendant may still sit in a mailbox, so a place counts as
	// settled only across a transport drain.
	deadline := time.Now().Add(30 * time.Second)
	for {
		settleTransport(rt)
		if settled() {
			settleTransport(rt)
			if settled() {
				return
			}
		}
		if time.Now().After(deadline) {
			return // the checks below report what never balanced
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// checkQuiescedSurvivors is checkQuiesced restricted to the live part
// of the runtime: state on or about dead places is the adoption
// protocol's to forget, not a leak. late, if not nil, names the
// survivors that hosted descendants of a victim whose death touched
// the finish; their ledgers are read once those activities end.
func checkQuiescedSurvivors(t *testing.T, rt *Runtime, late func(Place) bool) {
	t.Helper()
	if late != nil {
		awaitVictimDescendants(t, rt, late)
	}
	settleTransport(rt)
	dead := make(map[Place]bool)
	for _, p := range rt.DeadPlaces() {
		dead[p] = true
	}
	for _, s := range rt.FinishStates() {
		if dead[s.Home] {
			continue
		}
		t.Errorf("leaked finish root on survivor: %+v", s)
	}
	for _, p := range rt.ProxyStates() {
		if dead[p.Place] || dead[p.Home] {
			continue
		}
		t.Errorf("leaked finish proxy on survivor: %+v", p)
	}
	for _, b := range rt.DenseBufferStates() {
		if dead[b.Place] || dead[b.Home] {
			continue
		}
		t.Errorf("leaked dense buffer on survivor: %+v", b)
	}
	for _, pc := range rt.PlaceActivityCounts() {
		if dead[pc.Place] {
			continue
		}
		if !pc.Balanced() {
			t.Errorf("survivor conservation violated at place %d: begun=%d completed=%d",
				pc.Place, pc.Begun, pc.Completed)
		}
	}
}

// TestPropResilientVectorTrees: random remote-hopping trees under the
// two vector patterns with a mid-run kill at a seed-chosen completion
// count. Both the unpromoted fast path (trees whose prefix is local)
// and the distributed vector protocol take the death.
func TestPropResilientVectorTrees(t *testing.T) {
	for _, pattern := range []Pattern{PatternDefault, PatternDense} {
		pattern := pattern
		t.Run(pattern.String(), func(t *testing.T) {
			for trial := 0; trial < propTrials(16); trial++ {
				rng := rand.New(rand.NewSource(int64(trial)*9973 + 101))
				places := propPlaces(rng)
				rt := newTestRuntime(t, places, func(c *Config) { c.PlacesPerHost = 3 })
				victim := Place(1 + rng.Intn(places-1))
				root, want := genTree(rng, 0, places, 3, false)
				killAt := rng.Int63n(want)

				deathDone := make(chan struct{})
				rt.NotifyPlaceDeath(func(Place) { close(deathDone) })
				var n atomic.Int64
				killed := killAtCount(rt, victim, &n, killAt)

				vd := newVictimDescent(victim, places)
				var ferr error
				runErr := rt.Run(func(ctx *Ctx) {
					ferr = ctx.FinishPragma(pattern, func(c *Ctx) {
						vd.exec(c, root, &n, false)
					})
				})
				<-killed
				awaitDeathProcessed(t, deathDone)

				acceptDeathErr(t, trial, "inner finish", ferr)
				acceptDeathErr(t, trial, "Run", runErr)
				if got := n.Load(); got > want {
					t.Errorf("trial %d (places=%d victim=%d): completed %d activities, oracle caps at %d",
						trial, places, victim, got, want)
				} else if got < killAt {
					t.Errorf("trial %d: only %d activities completed before the kill threshold %d",
						trial, got, killAt)
				}
				// A finish the death did not touch tracked every
				// activity, so its survivors' ledgers are read at once.
				checkQuiescedSurvivors(t, rt, func(p Place) bool {
					return ferr != nil && vd.sent[p].Load()
				})
			}
		})
	}
}

// TestPropResilientSPMD: the SPMD counter specialization under a kill —
// a random remote fan-out with nested finishes, the victim chosen from
// the fan-out targets so the death always intersects the pattern.
func TestPropResilientSPMD(t *testing.T) {
	for trial := 0; trial < propTrials(16); trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7547 + 211))
		places := propPlaces(rng)
		rt := newTestRuntime(t, places)
		var remotes []Place
		for p := 1; p < places; p++ {
			if rng.Intn(2) == 0 {
				remotes = append(remotes, Place(p))
			}
		}
		if len(remotes) == 0 {
			remotes = append(remotes, Place(1+rng.Intn(places-1)))
		}
		victim := remotes[rng.Intn(len(remotes))]
		inner := int64(rng.Intn(4))
		want := int64(len(remotes)) * (1 + inner)
		killAt := rng.Int63n(want)

		deathDone := make(chan struct{})
		rt.NotifyPlaceDeath(func(Place) { close(deathDone) })
		var n atomic.Int64
		killed := killAtCount(rt, victim, &n, killAt)

		var ferr error
		runErr := rt.Run(func(ctx *Ctx) {
			ferr = ctx.FinishPragma(PatternSPMD, func(c *Ctx) {
				for _, p := range remotes {
					c.AtAsync(p, func(cc *Ctx) {
						if inner > 0 {
							// Nested finishes may themselves take the death;
							// their error must be typed like the outer one.
							e := cc.Finish(func(ic *Ctx) {
								for i := int64(0); i < inner; i++ {
									ic.Async(func(*Ctx) { n.Add(1) })
								}
							})
							acceptDeathErr(t, trial, "nested finish", e)
						}
						n.Add(1)
					})
				}
			})
		})
		<-killed
		awaitDeathProcessed(t, deathDone)

		acceptDeathErr(t, trial, "SPMD finish", ferr)
		acceptDeathErr(t, trial, "Run", runErr)
		if got := n.Load(); got > want {
			t.Errorf("trial %d: completed %d activities, oracle caps at %d", trial, got, want)
		}
		checkQuiescedSurvivors(t, rt, nil)
	}
}
