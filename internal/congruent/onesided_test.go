package congruent

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/core"
	"apgas/internal/x10rt"
)

// Tests for the one-sided fast path: congruent RDMA operations riding
// the transport's frame-v5 lane, governed by the enclosing finish.

// TestOneSidedLaneActive pins the wiring: on the default (chan) runtime
// the wire-encodable element types take the one-sided path, []int does
// not (no canonical wire width).
func TestOneSidedLaneActive(t *testing.T) {
	a := NewAllocator(newRT(t, 2))
	u, _ := NewArray[uint64](a, 8)
	b, _ := NewArray[byte](a, 8)
	f, _ := NewArray[float64](a, 8)
	i, _ := NewArray[int](a, 8)
	if !u.oneSided() || !b.oneSided() || !f.oneSided() {
		t.Error("wire-encodable arrays are not one-sided")
	}
	if i.oneSided() {
		t.Error("[]int has no wire form but claims the one-sided lane")
	}
	if u.arenaID == 0 || u.arenaID == b.arenaID {
		t.Errorf("arena ids not distinct/assigned: %d %d", u.arenaID, b.arenaID)
	}
}

// TestOneSidedFinishQuiescence: when a finish governing in-flight
// one-sided puts, gets and remote atomics returns, every landing has
// happened — quiescence covers the v5 lane exactly like activities.
func TestOneSidedFinishQuiescence(t *testing.T) {
	const places, perLen, rounds = 4, 64, 32
	rt := newRT(t, places)
	a := NewAllocator(rt)
	arr, err := NewArray[uint64](a, perLen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewArray[uint64](a, perLen)
	if err != nil {
		t.Fatal(err)
	}
	rerr := rt.Run(func(ctx *core.Ctx) {
		src := make([]uint64, perLen)
		for i := range src {
			src[i] = uint64(i) + 1
		}
		ferr := ctx.Finish(func(c *core.Ctx) {
			for p := 1; p < places; p++ {
				AsyncCopyPut(c, src, arr, core.Place(p), 0)
				for r := 0; r < rounds; r++ {
					RemoteAdd(c, arr, core.Place(p), 0, 1)
					RemoteXor(c, arr, core.Place(p), 1, 0x5a5a)
				}
			}
		})
		if ferr != nil {
			t.Errorf("put/atomics finish: %v", ferr)
		}
		// After the finish every put and every atomic has landed.
		for p := 1; p < places; p++ {
			frag := arr.Fragment(core.Place(p))
			if v := atomic.LoadUint64(&frag[0]); v != src[0]+rounds {
				t.Errorf("place %d: frag[0] = %d, want %d", p, v, src[0]+rounds)
			}
			if v := atomic.LoadUint64(&frag[1]); v != src[1] { // even xor count cancels
				t.Errorf("place %d: frag[1] = %d, want %d", p, v, src[1])
			}
			for i := 2; i < perLen; i++ {
				if frag[i] != src[i] {
					t.Errorf("place %d: frag[%d] = %d, want %d", p, i, frag[i], src[i])
					break
				}
			}
		}
		// Gets: pull place p's fragment into got's local fragment.
		buf := got.Local(ctx)
		ferr = ctx.Finish(func(c *core.Ctx) {
			AsyncCopyGet(c, arr, 2, 0, buf)
		})
		if ferr != nil {
			t.Errorf("get finish: %v", ferr)
		}
		want := arr.Fragment(2)
		for i := range buf {
			if buf[i] != atomic.LoadUint64(&want[i]) {
				t.Errorf("get buf[%d] = %d, want %d", i, buf[i], want[i])
				break
			}
		}
	})
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
}

// TestOneSidedByteFragments drives the []byte direct-landing shape (the
// zero-copy window) through put and blocking get.
func TestOneSidedByteFragments(t *testing.T) {
	const places, perLen = 3, 256
	rt := newRT(t, places)
	a := NewAllocator(rt)
	arr, err := NewArray[byte](a, perLen)
	if err != nil {
		t.Fatal(err)
	}
	rerr := rt.Run(func(ctx *core.Ctx) {
		src := make([]byte, perLen)
		for i := range src {
			src[i] = byte(i * 7)
		}
		if ferr := ctx.Finish(func(c *core.Ctx) {
			AsyncCopyPut(c, src, arr, 1, 0)
			AsyncCopyPut(c, src[:128], arr, 2, 64)
		}); ferr != nil {
			t.Errorf("finish: %v", ferr)
		}
		for i, v := range arr.Fragment(1) {
			if v != src[i] {
				t.Errorf("place 1 frag[%d] = %d, want %d", i, v, src[i])
				break
			}
		}
		for i := 0; i < 128; i++ {
			if v := arr.Fragment(2)[64+i]; v != src[i] {
				t.Errorf("place 2 frag[%d] = %d, want %d", 64+i, v, src[i])
				break
			}
		}
		buf := make([]byte, 100)
		if err := CopyGet(ctx, arr, 1, 10, buf); err != nil {
			t.Errorf("CopyGet: %v", err)
		}
		for i := range buf {
			if buf[i] != src[10+i] {
				t.Errorf("get buf[%d] = %d, want %d", i, buf[i], src[10+i])
				break
			}
		}
	})
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
}

// killRT builds a runtime over an owned chan transport so the test can
// sever a place mid-run.
func killRT(t *testing.T, places int) (*core.Runtime, *x10rt.ChanTransport) {
	t.Helper()
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatalf("NewChanTransport: %v", err)
	}
	rt, err := core.NewRuntime(core.Config{
		Places: places, Transport: tr, OwnTransport: true, CheckPatterns: true,
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt, tr
}

// TestOneSidedPlaceDeath: one-sided ops against a dead place surface
// ErrPlaceDead on the governing finish instead of hanging, and survivor
// traffic still lands.
func TestOneSidedPlaceDeath(t *testing.T) {
	const places, victim = 3, 2
	rt, tr := killRT(t, places)
	a := NewAllocator(rt)
	arr, err := NewArray[uint64](a, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !arr.oneSided() {
		t.Fatal("array is not on the one-sided lane")
	}
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(ctx *core.Ctx) {
			if err := tr.KillPlace(victim); err != nil {
				t.Errorf("KillPlace: %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for !rt.PlaceDead(victim) {
				if time.Now().After(deadline) {
					t.Error("runtime never observed the death")
					return
				}
				time.Sleep(time.Millisecond)
			}
			src := make([]uint64, 16)
			ferr := ctx.Finish(func(c *core.Ctx) {
				AsyncCopyPut(c, src, arr, victim, 0)
				RemoteAdd(c, arr, victim, 0, 1)
			})
			if !errors.Is(ferr, core.ErrPlaceDead) {
				t.Errorf("finish to dead place: err = %v, want ErrPlaceDead", ferr)
			}
			// The survivor link still works.
			ferr = ctx.Finish(func(c *core.Ctx) {
				RemoteAdd(c, arr, 1, 3, 41)
				RemoteAdd(c, arr, 1, 3, 1)
			})
			if ferr != nil {
				t.Errorf("survivor finish: %v", ferr)
			}
			if v := atomic.LoadUint64(&arr.Fragment(1)[3]); v != 42 {
				t.Errorf("survivor frag[3] = %d, want 42", v)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, core.ErrPlaceDead) {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung: one-sided death not surfaced to the finish")
	}
}

// TestOneSidedSelfOps: self-directed puts, gets and atomics still ride
// the lane (the paper routes even intra-octant traffic through PAMI)
// under the AtDirect-style local finish pair.
func TestOneSidedSelfOps(t *testing.T) {
	rt := newRT(t, 2)
	a := NewAllocator(rt)
	arr, err := NewArray[uint64](a, 8)
	if err != nil {
		t.Fatal(err)
	}
	rerr := rt.Run(func(ctx *core.Ctx) {
		src := []uint64{9, 8, 7}
		if ferr := ctx.Finish(func(c *core.Ctx) {
			AsyncCopyPut(c, src, arr, c.Place(), 1) // self put
			RemoteAdd(c, arr, c.Place(), 0, 5)      // self atomic
		}); ferr != nil {
			t.Errorf("self finish: %v", ferr)
		}
		frag := arr.Local(ctx)
		if atomic.LoadUint64(&frag[0]) != 5 || frag[1] != 9 || frag[2] != 8 || frag[3] != 7 {
			t.Errorf("self ops: frag = %v", frag[:4])
		}
		buf := make([]uint64, 3)
		if err := CopyGet(ctx, arr, ctx.Place(), 1, buf); err != nil {
			t.Errorf("self CopyGet: %v", err)
		}
		if fmt.Sprint(buf) != fmt.Sprint(src) {
			t.Errorf("self get = %v, want %v", buf, src)
		}
	})
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
}
