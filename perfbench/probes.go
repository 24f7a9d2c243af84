package main

import (
	"fmt"
	"os"
	"time"

	"apgas/internal/collectives"
	"apgas/internal/congruent"
	"apgas/internal/core"
	"apgas/internal/obs"
	"apgas/internal/sched"
	"apgas/internal/x10rt"
)

// probeResults is the layer ladder: direct calls to each layer's public
// function in the shape its workload uses, kernel → sched → finish →
// congruent landing → chan → batching → codec → TCP.
type probeResults struct {
	spawnNs        float64 // sched.New(1).Spawn of a no-op, then Drain
	chanSendNs     float64 // ChanTransport.Send to the handler running
	atRttUs        float64 // ctx.At to the other place, no-op body
	finishSpmdUs   float64 // FinishPragma(PatternSPMD), one no-op AtAsync per place
	xorSendNs      float64 // inside RemoteXorBatch, per update of a 1,024 batch
	xorLandNs      float64 // the enclosing Finish wait, per update
	xorAllocB      float64 // bytes allocated per update
	alltoallGBs    float64 // AllToAll of fft's transpose blocks
	rttUnbatchedUs float64 // phase (c) round trip without the batching wrapper
	finish         layers  // the probe runtime's finish counters
	// wire is the wire workload's reduced shape, traced, for workloads
	// that never serialize; nil for the wire workload itself.
	wire *layers
}

const probeReps = 2000

// runProbes runs the ladder. A probe that fails is reported on standard
// error and reads 0; the probes time layers and check nothing, so they
// count toward no repetition.
func runProbes(sp *spans, withWire bool) probeResults {
	var p probeResults
	id := sp.begin("probes", 0)
	defer sp.end(id)
	report := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: %v\n", name, err)
		}
	}
	sp.call("probe.sched.Spawn", id, func() { p.spawnNs = probeSpawn() })
	sp.call("probe.x10rt.ChanTransport.Send", id, func() {
		var err error
		p.chanSendNs, err = probeChanSend()
		report("chan send", err)
	})
	sp.call("probe.core", id, func() { report("core", probeCore(&p)) })
	sp.call("probe.collectives.AllToAll", id, func() {
		var err error
		p.alltoallGBs, err = probeAllToAll()
		report("alltoall", err)
	})
	sp.call("probe.x10rt.unbatched_rtt", id, func() {
		var err error
		p.rttUnbatchedUs, err = probeUnbatchedRTT()
		report("unbatched rtt", err)
	})
	if withWire {
		sp.call("probe.x10rt.wire_ladder", id, func() {
			var err error
			p.wire, err = probeWire()
			report("wire ladder", err)
		})
	}
	return p
}

func probeSpawn() float64 {
	var per []float64
	for r := 0; r < 10; r++ {
		s := sched.New(1)
		start := time.Now()
		for i := 0; i < probeReps; i++ {
			s.Spawn(func() {})
		}
		s.Drain()
		per = append(per, float64(time.Since(start))/probeReps)
	}
	return median(per)
}

func probeChanSend() (float64, error) {
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	ran := make(chan struct{}, 1)
	if err := tr.Register(hPing, func(_, _ int, _ any) { ran <- struct{}{} }); err != nil {
		return 0, err
	}
	var ns []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := tr.Send(0, 1, hPing, uint64(i), 8, x10rt.ControlClass); err != nil {
			return 0, err
		}
		<-ran
		ns = append(ns, float64(time.Since(start)))
	}
	return median(ns), nil
}

// probeCore times At, an SPMD finish and a RemoteXorBatch on one
// 2-place runtime, whose finish histogram also stands in for the
// workloads that run no finish.
func probeCore(p *probeResults) error {
	o := obs.New()
	rt, err := core.NewRuntime(core.Config{Places: places, Obs: o})
	if err != nil {
		return err
	}
	defer rt.Close()
	table, err := congruent.NewArray[uint64](congruent.NewAllocator(rt), 1<<raLog2PerPlace)
	if err != nil {
		return err
	}
	updates := make([]congruent.XorUpdate, raBatch)
	x := uint64(1)
	for i := range updates {
		x = splitmix(x)
		updates[i] = congruent.XorUpdate{Idx: int(x % (1 << raLog2PerPlace)), Val: x}
	}
	var at, spmd, send, land []float64
	var allocB uint64
	err = rt.Run(func(ctx *core.Ctx) {
		for i := 0; i < probeReps; i++ {
			start := time.Now()
			ctx.At(1, func(*core.Ctx) {})
			at = append(at, float64(time.Since(start))/1e3)
		}
		for i := 0; i < probeReps; i++ {
			start := time.Now()
			if err := ctx.FinishPragma(core.PatternSPMD, func(c *core.Ctx) {
				for _, pl := range c.Places() {
					c.AtAsync(pl, func(*core.Ctx) {})
				}
			}); err != nil {
				panic(err)
			}
			spmd = append(spmd, float64(time.Since(start))/1e3)
		}
		mem := markMem()
		for i := 0; i < probeReps/4; i++ {
			var inside time.Duration
			start := time.Now()
			if err := ctx.Finish(func(c *core.Ctx) {
				t := time.Now()
				congruent.RemoteXorBatch(c, table, 1, updates)
				inside = time.Since(t)
			}); err != nil {
				panic(err)
			}
			total := time.Since(start)
			send = append(send, float64(inside)/raBatch)
			land = append(land, float64(total-inside)/raBatch)
		}
		allocB, _ = mem.since()
	})
	if err != nil {
		return err
	}
	p.atRttUs, p.finishSpmdUs = median(at), median(spmd)
	p.xorSendNs, p.xorLandNs = median(send), median(land)
	p.xorAllocB = float64(allocB) / float64(len(send)*raBatch)
	p.finish = *runtimeLayers(rt, o)
	return nil
}

// probeAllToAll exchanges fft's transpose blocks: with N = 2^20 points
// over 2 places each place sends a 512×512 complex block to every place.
func probeAllToAll() (float64, error) {
	rt, err := core.NewRuntime(core.Config{Places: places})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	team := collectives.New(rt, core.WorldGroup(rt), collectives.ModeNative)
	const block, rounds = 512 * 512, 8
	var elapsed time.Duration
	err = rt.Run(func(ctx *core.Ctx) {
		start := time.Now()
		if err := ctx.FinishPragma(core.PatternSPMD, func(cs *core.Ctx) {
			for _, pl := range cs.Places() {
				cs.AtAsync(pl, func(cc *core.Ctx) {
					send := make([][]complex128, places)
					for d := range send {
						send[d] = make([]complex128, block)
					}
					for r := 0; r < rounds; r++ {
						collectives.AllToAll(team, cc, send)
					}
				})
			}
		}); err != nil {
			panic(err)
		}
		elapsed = time.Since(start)
	})
	if err != nil {
		return 0, err
	}
	bytes := float64(rounds * places * places * block * 16)
	return bytes / elapsed.Seconds() / 1e9, nil
}

func probeUnbatchedRTT() (float64, error) {
	m, err := openMesh(false, nil)
	if err != nil {
		return 0, err
	}
	defer m.close()
	if err := m.handshake(); err != nil {
		return 0, err
	}
	rtts, _, err := m.pingPong(wireFull.pings)
	if err != nil {
		return 0, err
	}
	return quantile(rtts, 0.5), nil
}

// probeWire runs one traced repetition of the wire workload's reduced
// shape and returns its wire-lane counters.
func probeWire() (*layers, error) {
	w, err := newWireSized(1, wireLadder)
	if err != nil {
		return nil, err
	}
	s, err := w.rep(obs.New(), nil, 0)
	if err != nil {
		return nil, err
	}
	return s.layers, nil
}
