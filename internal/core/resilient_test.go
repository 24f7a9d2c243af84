package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/x10rt"
)

// killableRuntime builds a runtime over a ChanTransport (the only
// in-process transport with KillPlace) with pattern checks on.
func killableRuntime(t *testing.T, places int) (*Runtime, *x10rt.ChanTransport) {
	t.Helper()
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatalf("NewChanTransport: %v", err)
	}
	rt, err := NewRuntime(Config{Places: places, Transport: tr, OwnTransport: true,
		CheckPatterns: true})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return rt, tr
}

// kill severs place p and waits until the runtime has processed the death.
func kill(t *testing.T, rt *Runtime, tr *x10rt.ChanTransport, p Place) {
	t.Helper()
	if err := tr.KillPlace(int(p)); err != nil {
		t.Fatalf("KillPlace(%d): %v", p, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rt.PlaceDead(p) {
		if time.Now().After(deadline) {
			t.Fatalf("runtime never observed death of place %d", p)
		}
		time.Sleep(time.Millisecond)
	}
}

// runWithTimeout guards against the exact failure mode under test: a
// finish that hangs instead of surfacing the death.
func runWithTimeout(t *testing.T, rt *Runtime, main func(*Ctx)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not quiesce after place death (finish wedged)")
		return nil
	}
}

// TestSpawnToDeadPlaceFailsFast: a spawn toward a pre-killed place
// surfaces ErrPlaceDead on the governing finish without hanging.
func TestSpawnToDeadPlaceFailsFast(t *testing.T) {
	for _, pattern := range []Pattern{PatternDefault, PatternDense, PatternAsync, PatternSPMD} {
		t.Run(pattern.String(), func(t *testing.T) {
			rt, tr := killableRuntime(t, 4)
			defer rt.Close()
			err := runWithTimeout(t, rt, func(ctx *Ctx) {
				kill(t, rt, tr, 2)
				ferr := ctx.FinishPragma(pattern, func(c *Ctx) {
					c.AtAsync(2, func(*Ctx) { t.Error("activity ran at dead place") })
				})
				if !errors.Is(ferr, ErrPlaceDead) {
					t.Errorf("finish error = %v, want ErrPlaceDead", ferr)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestMidFlightKillQuiesces: a place dies while holding live governed
// activities; the finish quiesces with ErrPlaceDead instead of waiting
// forever for credits from the victim.
func TestMidFlightKillQuiesces(t *testing.T) {
	for _, pattern := range []Pattern{PatternDefault, PatternDense, PatternSPMD} {
		t.Run(pattern.String(), func(t *testing.T) {
			rt, tr := killableRuntime(t, 4)
			defer rt.Close()
			started := make(chan struct{})
			release := make(chan struct{})
			err := runWithTimeout(t, rt, func(ctx *Ctx) {
				ferr := ctx.FinishPragma(pattern, func(c *Ctx) {
					c.AtAsync(2, func(cc *Ctx) {
						body := func(*Ctx) {
							close(started)
							<-release
						}
						if pattern == PatternSPMD {
							// SPMD remotes wrap nested work in a finish.
							_ = cc.Finish(func(ccc *Ctx) { ccc.Async(body) })
						} else {
							cc.Async(body)
						}
					})
					<-started
					kill(t, rt, tr, 2)
					close(release)
				})
				if !errors.Is(ferr, ErrPlaceDead) {
					t.Errorf("finish error = %v, want ErrPlaceDead", ferr)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestHereKillQuiesces: the FINISH_HERE round-trip partner dies before
// sending the response; the token it carried is forgiven.
func TestHereKillQuiesces(t *testing.T) {
	rt, tr := killableRuntime(t, 4)
	defer rt.Close()
	arrived := make(chan struct{})
	release := make(chan struct{})
	err := runWithTimeout(t, rt, func(ctx *Ctx) {
		ferr := ctx.FinishPragma(PatternHere, func(c *Ctx) {
			home := c.Place()
			c.AtAsync(2, func(cc *Ctx) {
				close(arrived)
				<-release
				// The response the protocol expects; the place is dead by
				// now, so the send is dropped by the transport.
				cc.AtAsync(home, func(*Ctx) {})
			})
			<-arrived
			kill(t, rt, tr, 2)
			close(release)
		})
		if !errors.Is(ferr, ErrPlaceDead) {
			t.Errorf("finish error = %v, want ErrPlaceDead", ferr)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestUntouchedFinishUnaffected: a finish whose activities never involve
// the victim completes cleanly, with no spurious ErrPlaceDead.
func TestUntouchedFinishUnaffected(t *testing.T) {
	rt, tr := killableRuntime(t, 4)
	defer rt.Close()
	var ran atomic.Int64
	err := runWithTimeout(t, rt, func(ctx *Ctx) {
		kill(t, rt, tr, 3)
		ferr := ctx.Finish(func(c *Ctx) {
			for p := Place(0); p < 3; p++ {
				c.AtAsync(p, func(*Ctx) { ran.Add(1) })
			}
		})
		if ferr != nil {
			t.Errorf("untouched finish error = %v, want nil", ferr)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d activities, want 3", got)
	}
}

// TestSurvivorConservation: after a kill, every surviving place's
// begun/completed pair balances even though the global per-pattern
// totals no longer do.
func TestSurvivorConservation(t *testing.T) {
	rt, tr := killableRuntime(t, 4)
	defer rt.Close()
	err := runWithTimeout(t, rt, func(ctx *Ctx) {
		_ = ctx.Finish(func(c *Ctx) {
			for p := Place(1); p < 4; p++ {
				c.AtAsync(p, func(cc *Ctx) {
					cc.Async(func(*Ctx) {})
				})
			}
		})
		kill(t, rt, tr, 2)
		_ = ctx.Finish(func(c *Ctx) {
			for p := Place(0); p < 4; p++ {
				c.AtAsync(p, func(*Ctx) {})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, pc := range rt.PlaceActivityCounts() {
		if rt.PlaceDead(pc.Place) {
			continue
		}
		if !pc.Balanced() {
			t.Errorf("place %d: begun=%d completed=%d", pc.Place, pc.Begun, pc.Completed)
		}
	}
}

// TestPlaceDeathIdempotent: repeated death reports collapse to one
// adoption pass and one subscriber notification.
func TestPlaceDeathIdempotent(t *testing.T) {
	rt, _ := killableRuntime(t, 4)
	defer rt.Close()
	var calls atomic.Int64
	rt.NotifyPlaceDeath(func(Place) { calls.Add(1) })
	rt.PlaceDeath(2)
	rt.PlaceDeath(2)
	rt.PlaceDeath(2)
	if got := calls.Load(); got != 1 {
		t.Fatalf("death subscriber called %d times, want 1", got)
	}
	if got := rt.DeadPlaces(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DeadPlaces = %v, want [2]", got)
	}
}

// TestSendAfterCloseDropped pins the send funnels' verdict on ErrClosed.
// An activity orphaned by a kill can outlive Close and still send; once
// the runtime is closed that failure is attrition and is dropped. The
// same failure under a live runtime is still a transport bug.
func TestSendAfterCloseDropped(t *testing.T) {
	rt, err := NewRuntime(Config{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close() // the runtime owns its transport, so this closes it too
	rt.send(0, 1, x10rt.HandlerFinishCtl, nil, 8, x10rt.ControlClass)
	if err := rt.trySend(0, 1, x10rt.HandlerSpawn, nil, 8, x10rt.DataClass); !errors.Is(err, x10rt.ErrClosed) {
		t.Errorf("trySend after Close = %v, want ErrClosed", err)
	}

	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewRuntime(Config{Places: 2, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	tr.Close()
	defer func() {
		if recover() == nil {
			t.Error("ErrClosed under a live runtime did not panic")
		}
	}()
	live.send(0, 1, x10rt.HandlerFinishCtl, nil, 8, x10rt.ControlClass)
}
