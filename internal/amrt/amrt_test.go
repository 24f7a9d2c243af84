package amrt

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/x10rt"
)

// newChanCluster builds n amrt runtimes over one in-process transport.
func newChanCluster(t *testing.T, n int) []*Runtime {
	t.Helper()
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	// One shared transport: handler registration is global, so a single
	// Runtime would suffice for dispatch, but each place needs its own
	// call/finish state. Register the transport handlers once and fan
	// out by place through a router.
	return newCluster(t, sharedEndpoints(tr, n))
}

// sharedEndpoints adapts one in-process transport into per-place views.
func sharedEndpoints(tr x10rt.Transport, n int) []x10rt.Transport {
	router := &chanRouter{tr: tr, eps: make([]*routedEndpoint, n)}
	out := make([]x10rt.Transport, n)
	for i := 0; i < n; i++ {
		ep := &routedEndpoint{Transport: tr, router: router, me: i, handlers: map[x10rt.HandlerID]x10rt.Handler{}}
		router.eps[i] = ep
		out[i] = ep
	}
	return out
}

// chanRouter demultiplexes one shared transport to per-place handler sets
// (the TCP mesh gives each place its own endpoint natively; in-process we
// need the split so each Runtime registers independently).
type chanRouter struct {
	tr       x10rt.Transport
	eps      []*routedEndpoint
	register sync.Once
	err      error
}

// routedEndpoint is one place's view: Register and Close are its own,
// everything else is the shared transport's.
type routedEndpoint struct {
	x10rt.Transport
	router   *chanRouter
	me       int
	mu       sync.Mutex
	handlers map[x10rt.HandlerID]x10rt.Handler
}

func (e *routedEndpoint) Register(id x10rt.HandlerID, h x10rt.Handler) error {
	e.mu.Lock()
	e.handlers[id] = h
	e.mu.Unlock()
	e.router.register.Do(func() {
		for probe := hCall; probe <= hBarrier; probe++ {
			probe := probe
			e.router.err = e.router.tr.Register(probe, func(src, dst int, payload any) {
				ep := e.router.eps[dst]
				ep.mu.Lock()
				hh := ep.handlers[probe]
				ep.mu.Unlock()
				if hh != nil {
					hh(src, dst, payload)
				}
			})
			if e.router.err != nil {
				return
			}
		}
	})
	return e.router.err
}

func (e *routedEndpoint) Close() error { return nil }

// newTCPCluster builds n amrt runtimes over a real loopback TCP mesh.
func newTCPCluster(t *testing.T, n int) []*Runtime {
	t.Helper()
	mesh, err := x10rt.NewLocalTCPMesh(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range mesh {
			tr.Close()
		}
	})
	eps := make([]x10rt.Transport, n)
	for i, tr := range mesh {
		eps[i] = tr
	}
	return newCluster(t, eps)
}

func newCluster(t *testing.T, eps []x10rt.Transport) []*Runtime {
	t.Helper()
	rts := make([]*Runtime, len(eps))
	for i, ep := range eps {
		r, err := New(ep, i)
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		rts[i] = r
	}
	return rts
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func toU64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// clusterKinds runs a subtest over both substrate kinds.
func clusterKinds(t *testing.T, n int, f func(t *testing.T, rts []*Runtime)) {
	t.Run("chan", func(t *testing.T) { f(t, newChanCluster(t, n)) })
	t.Run("tcp", func(t *testing.T) { f(t, newTCPCluster(t, n)) })
}

func TestCallRoundTrip(t *testing.T) {
	clusterKinds(t, 3, func(t *testing.T, rts []*Runtime) {
		for _, r := range rts {
			r.Register("square", func(src int, arg []byte) []byte {
				v := toU64(arg)
				return u64(v * v)
			})
		}
		out, err := rts[0].Call(2, "square", u64(9))
		if err != nil {
			t.Fatal(err)
		}
		if toU64(out) != 81 {
			t.Fatalf("got %d", toU64(out))
		}
	})
}

func TestFinishCountsSpawns(t *testing.T) {
	clusterKinds(t, 4, func(t *testing.T, rts []*Runtime) {
		var n atomic.Int64
		for _, r := range rts {
			r.Register("inc", func(int, []byte) []byte {
				n.Add(1)
				return nil
			})
		}
		err := rts[0].Finish(func(spawn func(int, string, []byte)) {
			for d := 0; d < 4; d++ {
				for rep := 0; rep < 5; rep++ {
					spawn(d, "inc", nil)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n.Load() != 20 {
			t.Fatalf("n = %d, want 20", n.Load())
		}
	})
}

func TestDistributedSum(t *testing.T) {
	// The canonical SPMD pattern: place 0 farms out ranges, workers
	// compute partial sums, Call returns them.
	clusterKinds(t, 4, func(t *testing.T, rts []*Runtime) {
		for _, r := range rts {
			r.Register("sumRange", func(src int, arg []byte) []byte {
				lo, hi := toU64(arg[:8]), toU64(arg[8:])
				var s uint64
				for v := lo; v < hi; v++ {
					s += v
				}
				return u64(s)
			})
		}
		const total = 10000
		var sum atomic.Uint64
		err := rts[0].Finish(func(spawn func(int, string, []byte)) {
			// Use Call from a fan of goroutines instead of spawn, to
			// exercise concurrent calls.
			var wg sync.WaitGroup
			for d := 0; d < 4; d++ {
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					lo := uint64(d * total / 4)
					hi := uint64((d + 1) * total / 4)
					arg := append(u64(lo), u64(hi)...)
					out, err := rts[0].Call(d, "sumRange", arg)
					if err != nil {
						t.Errorf("call: %v", err)
						return
					}
					sum.Add(toU64(out))
				}(d)
			}
			wg.Wait()
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(total) * (total - 1) / 2; sum.Load() != want {
			t.Fatalf("sum = %d, want %d", sum.Load(), want)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	clusterKinds(t, 5, func(t *testing.T, rts []*Runtime) {
		var entered atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, 3*len(rts))
		for _, r := range rts {
			wg.Add(1)
			go func(r *Runtime) {
				defer wg.Done()
				for round := 1; round <= 3; round++ {
					entered.Add(1)
					if err := r.Barrier(); err != nil {
						errs <- err
						return
					}
					if got := entered.Load(); got < int64(round*len(rts)) {
						t.Errorf("round %d: only %d entered before release", round, got)
						return
					}
				}
			}(r)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(20 * time.Second):
			t.Fatal("barrier deadlock")
		}
	})
}

func TestSinglePlaceDegenerate(t *testing.T) {
	rts := newChanCluster(t, 1)
	if err := rts[0].Barrier(); err != nil {
		t.Fatal(err)
	}
	rts[0].Register("echo", func(src int, arg []byte) []byte { return arg })
	out, err := rts[0].Call(0, "echo", []byte("hi"))
	if err != nil || string(out) != "hi" {
		t.Fatalf("self call: %q %v", out, err)
	}
	if err := rts[0].Finish(func(spawn func(int, string, []byte)) {
		spawn(0, "echo", nil)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	rts := newChanCluster(t, 1)
	rts[0].Register("x", func(int, []byte) []byte { return nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	rts[0].Register("x", func(int, []byte) []byte { return nil })
}
