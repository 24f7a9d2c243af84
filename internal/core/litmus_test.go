package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/core"
	"apgas/internal/obs"
	"apgas/internal/x10rt"
	"apgas/internal/x10rt/transporttest"
)

// Litmus-style ordering tests, after the classic shared-memory litmus
// shapes (MP, SB, IRIW), recast for an active-message runtime. Each test
// pins down one edge of the delivery model the finish protocols and GLB
// lifeline resuscitation assume:
//
//   - MP (message passing): per-link FIFO — a message cannot overtake an
//     earlier one on the same (src, dst) link. This is what lets a
//     finish trust that a spawn precedes the credit that pays for it.
//   - SB (store buffering): cross-link weakness is permitted mid-flight
//     (both sides may observe "nothing yet"), but finish quiescence is a
//     full synchronization: after the governing finish returns, every
//     write it governed is visible everywhere.
//   - IRIW (independent reads of independent writes): readers on
//     different links may disagree about the order of independent
//     writers — the model makes no global-order promise — yet every
//     write is delivered exactly once to every reader.
//
// The message-pair halves run over every transport (chan, TCP with and
// without HLC stamps, batching); the runtime halves use the in-process transports, since
// spawn bodies are closures and cannot cross a serializing wire.

// litmusHandler is clear of the runtime range, transporttest, and the
// harness microbenchmarks.
const litmusHandler = x10rt.UserHandlerBase + 300

// litmusMesh is one transport universe under test.
type litmusMesh struct {
	places int
	ep     func(p int) x10rt.Transport
	reg    func(id x10rt.HandlerID, h x10rt.Handler) error
}

func (m *litmusMesh) flush() {
	seen := map[x10rt.Transport]bool{}
	for p := 0; p < m.places; p++ {
		if tr := m.ep(p); !seen[tr] {
			seen[tr] = true
			_ = tr.Flush(-1)
		}
	}
}

// tcpLitmusMesh opens a loopback TCP mesh (v4 frames: the ordering
// model must survive the type-table handshake riding the data stream).
// With stamped set, every endpoint carries a distributed-tracing tracer,
// so each frame also carries the sender's hybrid logical clock prefix.
func tcpLitmusMesh(t *testing.T, places int, stamped bool) *litmusMesh {
	t.Helper()
	tcp, err := x10rt.NewLocalTCPMesh(places)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range tcp {
			tr.Close()
		}
	})
	if stamped {
		for _, tr := range tcp {
			tc := obs.NewTracer()
			tc.EnableDist(1)
			tr.AttachTracer(tc)
		}
	}
	return &litmusMesh{
		places: places,
		ep:     func(p int) x10rt.Transport { return tcp[p] },
		reg: func(id x10rt.HandlerID, h x10rt.Handler) error {
			for _, tr := range tcp {
				if err := tr.Register(id, h); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// litmusMeshes builds the wire shapes the suite must hold on: in-process
// chan, a real serializing TCP mesh, the same mesh with HLC-stamped
// frames, and the batching wrapper (over chan), whose coalescing must
// preserve per-link order.
func litmusMeshes(t *testing.T, places int) map[string]*litmusMesh {
	t.Helper()
	out := map[string]*litmusMesh{}

	ch, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ch.Close() })
	out["chan"] = &litmusMesh{places: places, ep: func(int) x10rt.Transport { return ch }, reg: ch.Register}

	out["tcp"] = tcpLitmusMesh(t, places, false)
	out["tcp-codec"] = tcpLitmusMesh(t, places, true)

	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	bt := x10rt.NewBatchingTransport(inner, x10rt.BatchOptions{
		MaxDelay:  100 * time.Microsecond,
		MaxFrames: 16,
	})
	t.Cleanup(func() { bt.Close() })
	out["batch"] = &litmusMesh{places: places, ep: func(int) x10rt.Transport { return bt }, reg: bt.Register}

	return out
}

// awaitCount polls until the counter reaches want, nudging flushes so
// batched tails drain.
func awaitCount(t *testing.T, m *litmusMesh, what string, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %d/%d", what, c.Load(), want)
		}
		m.flush()
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLitmusTransportMP: the message-passing shape on one link. The
// writer alternates data(i), flag(i) down 0→1; observing flag(i) with
// data older than i would mean the flag overtook its data — forbidden
// under per-link FIFO on every transport.
func TestLitmusTransportMP(t *testing.T) {
	const rounds = 400
	for name, m := range litmusMeshes(t, 2) {
		t.Run(name, func(t *testing.T) {
			var data atomic.Int64
			data.Store(-1)
			var flags, forbidden atomic.Int64
			err := m.reg(litmusHandler, func(src, dst int, payload any) {
				p := payload.(transporttest.Payload)
				switch p.Tag {
				case "data":
					data.Store(int64(p.Seq))
				case "flag":
					if data.Load() < int64(p.Seq) {
						forbidden.Add(1)
					}
					flags.Add(1)
				}
			})
			if err != nil {
				t.Fatalf("Register: %v", err)
			}
			for i := 0; i < rounds; i++ {
				if err := m.ep(0).Send(0, 1, litmusHandler, transporttest.Payload{Seq: i, Tag: "data"}, 16, x10rt.DataClass); err != nil {
					t.Fatalf("Send data: %v", err)
				}
				if err := m.ep(0).Send(0, 1, litmusHandler, transporttest.Payload{Seq: i, Tag: "flag"}, 16, x10rt.DataClass); err != nil {
					t.Fatalf("Send flag: %v", err)
				}
			}
			awaitCount(t, m, "flags", &flags, rounds)
			if n := forbidden.Load(); n != 0 {
				t.Errorf("MP forbidden outcome observed %d times: flag overtook its data", n)
			}
		})
	}
}

// TestLitmusTransportSB: the store-buffering shape. Both places send a
// token and immediately look for the other's. The weak outcome — neither
// has arrived yet — is explicitly permitted (links are asynchronous);
// what must hold is exactly-once delivery of every token.
func TestLitmusTransportSB(t *testing.T) {
	const rounds = 200
	for name, m := range litmusMeshes(t, 2) {
		t.Run(name, func(t *testing.T) {
			var recv [2]atomic.Int64
			if err := m.reg(litmusHandler, func(src, dst int, payload any) {
				recv[dst].Add(1)
			}); err != nil {
				t.Fatalf("Register: %v", err)
			}
			weak := 0
			for i := 0; i < rounds; i++ {
				var wg sync.WaitGroup
				sawOther := [2]bool{}
				for p := 0; p < 2; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						if err := m.ep(p).Send(p, 1-p, litmusHandler, transporttest.Payload{Seq: i}, 8, x10rt.DataClass); err != nil {
							t.Errorf("Send: %v", err)
							return
						}
						sawOther[p] = recv[p].Load() > int64(i)
					}(p)
				}
				wg.Wait()
				if !sawOther[0] && !sawOther[1] {
					weak++ // allowed: both tokens still in flight
				}
				// Barrier between rounds: both tokens of round i delivered.
				awaitCount(t, m, "tokens@0", &recv[0], int64(i+1))
				awaitCount(t, m, "tokens@1", &recv[1], int64(i+1))
			}
			t.Logf("SB weak outcome (both miss) in %d/%d rounds — permitted", weak, rounds)
			for p := 0; p < 2; p++ {
				if n := recv[p].Load(); n != rounds {
					t.Errorf("place %d received %d tokens, want exactly %d", p, n, rounds)
				}
			}
		})
	}
}

// TestLitmusTransportIRIW: independent writers 0 and 1 each send to
// readers 2 and 3. Readers may disagree about which writer came first —
// the model promises no global write order — but each reader must get
// exactly one message per writer per round, in per-writer FIFO across
// rounds.
func TestLitmusTransportIRIW(t *testing.T) {
	const rounds = 150
	for name, m := range litmusMeshes(t, 4) {
		t.Run(name, func(t *testing.T) {
			type obsLog struct {
				mu    sync.Mutex
				first []int // writer observed first, per round
				seen  map[[2]int]int
				last  map[int]int // last seq per writer (FIFO check)
				bad   []string
			}
			logs := [2]*obsLog{}
			for i := range logs {
				logs[i] = &obsLog{seen: map[[2]int]int{}, last: map[int]int{0: -1, 1: -1}}
			}
			var got atomic.Int64
			if err := m.reg(litmusHandler, func(src, dst int, payload any) {
				p := payload.(transporttest.Payload)
				l := logs[dst-2]
				l.mu.Lock()
				l.seen[[2]int{src, p.Seq}]++
				if p.Seq > l.last[src] {
					if len(l.first) == p.Seq { // first arrival of this round
						l.first = append(l.first, src)
					}
					l.last[src] = p.Seq
				} else {
					l.bad = append(l.bad, fmt.Sprintf("writer %d seq %d after %d", src, p.Seq, l.last[src]))
				}
				l.mu.Unlock()
				got.Add(1)
			}); err != nil {
				t.Fatalf("Register: %v", err)
			}
			for i := 0; i < rounds; i++ {
				for w := 0; w < 2; w++ {
					for r := 2; r < 4; r++ {
						if err := m.ep(w).Send(w, r, litmusHandler, transporttest.Payload{Seq: i}, 8, x10rt.DataClass); err != nil {
							t.Fatalf("Send: %v", err)
						}
					}
				}
				awaitCount(t, m, "round deliveries", &got, int64(4*(i+1)))
			}
			disagree := 0
			for i := 0; i < rounds; i++ {
				for _, l := range logs {
					for w := 0; w < 2; w++ {
						if n := l.seen[[2]int{w, i}]; n != 1 {
							t.Errorf("round %d: writer %d delivered %d times to a reader, want exactly once", i, w, n)
						}
					}
				}
				if i < len(logs[0].first) && i < len(logs[1].first) && logs[0].first[i] != logs[1].first[i] {
					disagree++
				}
			}
			for r, l := range logs {
				if len(l.bad) > 0 {
					t.Errorf("reader %d: per-writer FIFO broken: %v", r+2, l.bad)
				}
			}
			t.Logf("IRIW readers disagreed on writer order in %d/%d rounds — permitted", disagree, rounds)
		})
	}
}

// litmusRuntimes builds runtimes over the in-process wire shapes (chan
// and batching-over-chan); spawn bodies are closures, so the serializing
// TCP wire is exercised by the transport-level halves above instead.
func litmusRuntimes(t *testing.T, places int) map[string]*core.Runtime {
	t.Helper()
	out := map[string]*core.Runtime{}

	rt, err := core.NewRuntime(core.Config{Places: places, CheckPatterns: true, PlacesPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	out["chan"] = rt

	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	bt := x10rt.NewBatchingTransport(inner, x10rt.BatchOptions{
		MaxDelay:  100 * time.Microsecond,
		MaxFrames: 16,
	})
	brt, err := core.NewRuntime(core.Config{
		Places: places, CheckPatterns: true, PlacesPerHost: 2,
		Transport: bt, OwnTransport: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(brt.Close)
	out["batch"] = brt

	return out
}

// TestLitmusRuntimeMPAtDirect: MP over AtDirect. Direct bodies execute
// on the destination dispatcher in delivery order, so a concurrent
// observer that reads flag before data must never see data older than
// the flag it read.
func TestLitmusRuntimeMPAtDirect(t *testing.T) {
	const rounds = 300
	for name, rt := range litmusRuntimes(t, 2) {
		t.Run(name, func(t *testing.T) {
			var data, flag atomic.Int64
			data.Store(-1)
			flag.Store(-1)
			var forbidden atomic.Int64
			err := rt.Run(func(ctx *core.Ctx) {
				err := ctx.Finish(func(c *core.Ctx) {
					c.AtAsync(1, func(cc *core.Ctx) { // the observer
						for flag.Load() < rounds-1 {
							f := flag.Load()
							if d := data.Load(); d < f {
								forbidden.Add(1)
							}
						}
					})
					for i := int64(0); i < rounds; i++ {
						i := i
						c.AtDirect(1, 16, func(*core.Ctx) { data.Store(i) })
						c.AtDirect(1, 16, func(*core.Ctx) { flag.Store(i) })
					}
				})
				if err != nil {
					t.Errorf("finish: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := forbidden.Load(); n != 0 {
				t.Errorf("MP forbidden outcome observed %d times over AtDirect", n)
			}
		})
	}
}

// TestLitmusRuntimeMPFinish: MP where the "flag" is finish completion.
// AtAsync spawns race freely in flight, but once the governing finish
// returns, every write it governed is visible from anywhere.
func TestLitmusRuntimeMPFinish(t *testing.T) {
	const rounds = 100
	for name, rt := range litmusRuntimes(t, 3) {
		t.Run(name, func(t *testing.T) {
			var cells [3]atomic.Int64
			err := rt.Run(func(ctx *core.Ctx) {
				for i := int64(1); i <= rounds; i++ {
					i := i
					if err := ctx.Finish(func(c *core.Ctx) {
						for q := 1; q < c.NumPlaces(); q++ {
							q := q
							c.AtAsync(core.Place(q), func(*core.Ctx) { cells[q].Store(i) })
						}
					}); err != nil {
						t.Errorf("finish: %v", err)
						return
					}
					for q := 1; q < ctx.NumPlaces(); q++ {
						if got := cells[q].Load(); got != i {
							t.Errorf("round %d: write at place %d invisible after finish (got %d)", i, q, got)
							return
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLitmusRuntimeSBFinish: SB with finish as the fence. Two places
// write to each other concurrently under one finish; the both-miss weak
// outcome is allowed mid-flight but forbidden after the finish returns.
func TestLitmusRuntimeSBFinish(t *testing.T) {
	const rounds = 100
	for name, rt := range litmusRuntimes(t, 2) {
		t.Run(name, func(t *testing.T) {
			var x, y atomic.Int64
			err := rt.Run(func(ctx *core.Ctx) {
				for i := int64(1); i <= rounds; i++ {
					i := i
					if err := ctx.FinishPragma(core.PatternSPMD, func(c *core.Ctx) {
						c.AtAsync(1, func(cc *core.Ctx) {
							if err := cc.Finish(func(ic *core.Ctx) {
								ic.Async(func(*core.Ctx) { y.Store(i) })
							}); err != nil {
								t.Errorf("inner finish: %v", err)
							}
						})
						x.Store(i) // the home-side write
					}); err != nil {
						t.Errorf("finish: %v", err)
						return
					}
					if x.Load() != i || y.Load() != i {
						t.Errorf("round %d: SB weak outcome after finish (x=%d y=%d)", i, x.Load(), y.Load())
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLitmusRuntimeIRIWDense: IRIW under a FINISH_DENSE root with
// software-routed control traffic (PlacesPerHost=2 puts the readers on a
// different host chunk). Readers may log the independent writers in
// different orders, but after the finish each reader saw each writer
// exactly once per round.
func TestLitmusRuntimeIRIWDense(t *testing.T) {
	const rounds = 60
	for name, rt := range litmusRuntimes(t, 4) {
		t.Run(name, func(t *testing.T) {
			type rlog struct {
				mu    sync.Mutex
				order []int
			}
			err := rt.Run(func(ctx *core.Ctx) {
				for i := 0; i < rounds; i++ {
					logs := [2]*rlog{{}, {}}
					if err := ctx.FinishPragma(core.PatternDense, func(c *core.Ctx) {
						for w := 0; w < 2; w++ {
							w := w
							c.AtAsync(core.Place(w), func(cw *core.Ctx) {
								for r := 2; r < 4; r++ {
									r := r
									cw.AtAsync(core.Place(r), func(*core.Ctx) {
										l := logs[r-2]
										l.mu.Lock()
										l.order = append(l.order, w)
										l.mu.Unlock()
									})
								}
							})
						}
					}); err != nil {
						t.Errorf("dense finish: %v", err)
						return
					}
					for r, l := range logs {
						if len(l.order) != 2 || l.order[0]+l.order[1] != 1 {
							t.Errorf("round %d: reader %d observed writers %v, want each exactly once", i, r+2, l.order)
							return
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
