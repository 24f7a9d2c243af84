package congruent

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/core"
	"apgas/internal/x10rt"
)

// Tests for GUPS batches on the one-sided lane: typed pooled records in
// process, 12-byte wire records over TCP, one fragment lock per batch.

// xorStream fills ups with the next updates of a deterministic stream
// over [0, perLen) and applies them to want.
func xorStream(x *uint64, ups []XorUpdate, perLen int, want []uint64) {
	for i := range ups {
		*x = *x*6364136223846793005 + 1442695040888963407
		ups[i] = XorUpdate{Idx: int(*x>>33) % perLen, Val: *x}
		want[ups[i].Idx] ^= *x
	}
}

// TestXorBatchBadIndexIsFinishError: an index outside the fragment in a
// typed batch surfaces as the enclosing finish's error — remote and
// self-directed alike — and the dispatcher that landed it keeps
// serving the next batch.
func TestXorBatchBadIndexIsFinishError(t *testing.T) {
	const perLen = 16
	rt := newRT(t, 2)
	arr, err := NewArray[uint64](NewAllocator(rt), perLen)
	if err != nil {
		t.Fatal(err)
	}
	if !arr.oneSided() {
		t.Fatal("array is not on the one-sided lane")
	}
	rerr := rt.Run(func(ctx *core.Ctx) {
		for _, p := range []core.Place{1, 0} {
			ferr := ctx.Finish(func(c *core.Ctx) {
				RemoteXorBatch(c, arr, p, []XorUpdate{{Idx: 3, Val: 1}, {Idx: perLen, Val: 1}})
			})
			if !errors.Is(ferr, x10rt.ErrFrameCorrupt) {
				t.Errorf("place %d: finish err = %v, want the out-of-range landing error", p, ferr)
			}
			if ferr := ctx.Finish(func(c *core.Ctx) {
				RemoteXorBatch(c, arr, p, []XorUpdate{{Idx: 5, Val: 7}})
			}); ferr != nil {
				t.Errorf("place %d: batch after the bad one: %v", p, ferr)
			}
			if v := arr.Fragment(p)[5]; v != 7 {
				t.Errorf("place %d: frag[5] = %d, want 7", p, v)
			}
		}
	})
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
}

// TestXorBatchManyOutstanding: hundreds of batches queue behind an
// injected delivery delay under one finish while the caller rewrites
// its update slice after every call. Each table must come out exactly
// as computed locally, so no pooled batch is reused before it lands.
func TestXorBatchManyOutstanding(t *testing.T) {
	const places, perLen, batches, perBatch = 2, 1024, 400, 128
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{
		Places: places,
		Latency: func(src, dst, bytes int, class x10rt.Class) time.Duration {
			return 2 * time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{Places: places, Transport: tr, OwnTransport: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	arr, err := NewArray[uint64](NewAllocator(rt), perLen)
	if err != nil {
		t.Fatal(err)
	}
	want := [places][]uint64{make([]uint64, perLen), make([]uint64, perLen)}
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(ctx *core.Ctx) {
			ups := make([]XorUpdate, perBatch)
			x := uint64(7)
			if ferr := ctx.Finish(func(c *core.Ctx) {
				for b := 0; b < batches; b++ {
					p := core.Place(b % places)
					xorStream(&x, ups, perLen, want[p])
					RemoteXorBatch(c, arr, p, ups)
				}
			}); ferr != nil {
				t.Errorf("finish: %v", ferr)
			}
		})
	}()
	select {
	case rerr := <-done:
		if rerr != nil {
			t.Fatalf("Run: %v", rerr)
		}
	case <-time.After(30 * time.Second):
		// A batch reused before it landed carries another batch's
		// finish credit, so the finish never completes.
		t.Fatal("finish never completed")
	}
	for p := 0; p < places; p++ {
		if !slices.Equal(arr.Fragment(core.Place(p)), want[p]) {
			t.Errorf("place %d: table differs from the locally computed one", p)
		}
	}
}

// TestXorBatchTCPOverlap lands overlapping batches in one fragment
// from two remote TCP endpoints (wire records, landed on their reader
// goroutines) and from the owning endpoint itself (typed, landed on the
// sender), all at once. Every batch goes out twice, so the table must
// return exactly to its initial state; under -race this also shows the
// fragment lock orders the concurrent landings.
func TestXorBatchTCPOverlap(t *testing.T) {
	const places, target, perLen, batches, perBatch = 3, 1, 256, 64, 64
	mesh, err := x10rt.NewLocalTCPMesh(places)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range mesh {
			ep.Close()
		}
	})
	at := x10rt.NewArenaTable()
	var flags atomic.Int64
	const flag = x10rt.UserHandlerBase + 300
	for _, ep := range mesh {
		ep.AttachArenas(at)
		if err := ep.Register(flag, func(src, dst int, payload any) { flags.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	frag := make([]uint64, perLen)
	for i := range frag {
		frag[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	initial := slices.Clone(frag)
	const arena = 1
	at.Register(target, arena, arenaFor(frag))

	var wg sync.WaitGroup
	for src := 0; src < places; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			ups := make([]XorUpdate, perBatch)
			discard := make([]uint64, perLen)
			x := uint64(src + 1) // distinct streams over the same indexes
			for b := 0; b < batches; b++ {
				xorStream(&x, ups, perLen, discard)
				for twice := 0; twice < 2; twice++ {
					op, err := x10rt.NewXorBatchOp(arena, ups)
					if err != nil {
						t.Error(err)
						return
					}
					if err := mesh[src].SendOneSided(src, target, op); err != nil {
						t.Errorf("SendOneSided(%d->%d): %v", src, target, err)
						return
					}
				}
			}
			if err := mesh[src].Send(src, target, flag, 0, 8, x10rt.DataClass); err != nil {
				t.Errorf("flag from %d: %v", src, err)
			}
		}(src)
	}
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for flags.Load() != places {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d senders' batches landed", flags.Load(), places)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !slices.Equal(frag, initial) {
		t.Error("doubled batches did not return the table to its initial state")
	}
}

// TestRemoteXorBatchAllocs is the tier-1 allocation gate of the GUPS
// path: sending and landing 1,024-update batches on the chan transport
// in steady state allocates at most 1 byte per update, amortised over
// the enclosing finishes. Steady state means the pool holds a finish's
// worth of batches; encoding or copying a batch per send would cost
// 12-16 bytes per update.
func TestRemoteXorBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	const perLen, perBatch, perFinish, finishes = 1 << 12, 1024, 32, 32
	rt := newRT(t, 2)
	arr, err := NewArray[uint64](NewAllocator(rt), perLen)
	if err != nil {
		t.Fatal(err)
	}
	ups := make([]XorUpdate, perBatch)
	x := uint64(3)
	xorStream(&x, ups, perLen, make([]uint64, perLen))
	pass := func(ctx *core.Ctx) {
		if ferr := ctx.Finish(func(c *core.Ctx) {
			for b := 0; b < perFinish; b++ {
				RemoteXorBatch(c, arr, core.Place(b%2), ups)
			}
		}); ferr != nil {
			t.Errorf("finish: %v", ferr)
		}
	}
	var perUpdate float64
	var gcs uint32
	rerr := rt.Run(func(ctx *core.Ctx) {
		// Start from a collected heap, so garbage left by earlier tests
		// cannot trigger a collection, which empties the pool, mid-run.
		runtime.GC()
		pass(ctx) // warm the pool and the mailboxes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for f := 0; f < finishes; f++ {
			pass(ctx)
		}
		runtime.ReadMemStats(&after)
		perUpdate = float64(after.TotalAlloc-before.TotalAlloc) / (finishes * perFinish * perBatch)
		gcs = after.NumGC - before.NumGC
	})
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	t.Logf("%.3f B/update, %d GC cycles while measuring", perUpdate, gcs)
	if perUpdate > 1 {
		t.Errorf("RemoteXorBatch send+land allocates %.2f B/update, gate is 1", perUpdate)
	}
}
