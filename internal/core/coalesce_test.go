package core

import (
	"sync/atomic"
	"testing"

	"apgas/internal/x10rt"
)

// TestDenseCoalescingBatches verifies the §3.1 coalescing refinement: under
// a burst of FINISH_DENSE control traffic, masters forward fewer (larger)
// routed messages than the snapshots they receive.
func TestDenseCoalescingBatches(t *testing.T) {
	const places = 16
	rt, err := NewRuntime(Config{Places: places, PlacesPerHost: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var n atomic.Int64
	rerr := rt.Run(func(ctx *Ctx) {
		// A spawn storm: every place spawns at every other place several
		// times, producing many snapshots per proxy place.
		err := ctx.FinishPragma(PatternDense, func(c *Ctx) {
			for _, p := range c.Places() {
				c.AtAsync(p, func(cc *Ctx) {
					for rep := 0; rep < 4; rep++ {
						for _, q := range cc.Places() {
							cc.AtAsync(q, func(*Ctx) { n.Add(1) })
						}
					}
				})
			}
		})
		if err != nil {
			t.Errorf("dense finish: %v", err)
		}
	})
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	if n.Load() != places*places*4 {
		t.Fatalf("n = %d, want %d", n.Load(), places*places*4)
	}
	// The home's control fan-in must stay at masters-plus-housemates:
	// remote hosts reach home only through their master place, while
	// home's own host members deliver directly (intra-host traffic needs
	// no shaping). With 16 places and 4 per host: 3 masters + 3
	// housemates = 6 sources, instead of 15 with direct delivery.
	const wantMax = (places/4 - 1) + (4 - 1)
	fanIn, _ := rt.Transport().Links().FanIn(0, x10rt.ControlClass)
	if fanIn > wantMax {
		t.Errorf("home control fan-in = %d, want <= %d", fanIn, wantMax)
	}
}

// TestDenseCoalescingCorrectUnderReordering stresses the buffered path with
// adversarial reordering: the flush markers and snapshot batches may arrive
// shuffled, and the finish must still terminate exactly once with the right
// count.
func TestDenseCoalescingCorrectUnderReordering(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: 12, ReorderSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(Config{Places: 12, PlacesPerHost: 4, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		rerr := rt.Run(func(ctx *Ctx) {
			err := ctx.FinishPragma(PatternDense, func(c *Ctx) {
				for _, p := range c.Places() {
					c.AtAsync(p, func(cc *Ctx) {
						cc.AtAsync((cc.Place()+5)%12, func(c3 *Ctx) {
							c3.AtAsync((c3.Place()+7)%12, func(*Ctx) { n.Add(1) })
						})
					})
				}
			})
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		})
		rt.Close()
		if rerr != nil {
			t.Fatalf("seed %d: %v", seed, rerr)
		}
		if n.Load() != 12 {
			t.Fatalf("seed %d: n = %d, want 12", seed, n.Load())
		}
	}
}
