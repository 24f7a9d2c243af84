package main

import (
	"fmt"
	"time"

	"apgas/internal/apps/fftbench"
	"apgas/internal/apps/randomaccess"
	"apgas/internal/apps/uts"
	"apgas/internal/baseline"
	"apgas/internal/core"
	"apgas/internal/glb"
	"apgas/internal/kernels/sha1rng"
	"apgas/internal/obs"
)

// runKernel is the part every kernel repetition shares: build a fresh
// runtime, run the kernel on it, read the layer counters on traced
// repetitions, tear the runtime down, and run check, the verification
// done outside the kernel (nil when the kernel verifies itself). It
// fills wall, allocB, gcs and layers; run returns the kernel's own timed
// section in seconds.
func runKernel(o *obs.Obs, sp *spans, parent int, name string, run func(rt *core.Runtime) (float64, error), check func() error) (sample, error) {
	var s sample
	mem := markMem()
	t0 := time.Now()
	var rt *core.Runtime
	var err error
	sp.call("core.NewRuntime", parent, func() {
		rt, err = core.NewRuntime(core.Config{Places: places, Obs: o})
	})
	if err != nil {
		return s, err
	}
	sp.call(name, parent, func() { s.kernel, err = run(rt) })
	if o != nil {
		s.layers = runtimeLayers(rt, o)
	}
	sp.call("core.Runtime.Close", parent, rt.Close)
	if err == nil && check != nil {
		err = check()
	}
	s.wall = time.Since(t0).Seconds()
	s.allocB, s.gcs = mem.since()
	return s, err
}

// RandomAccess: 2^20 words per place (8 MiB; 16 MiB in all), 4 updates
// per word, 1,024-update look-ahead batches, HPCC verification pass.
const (
	raLog2PerPlace   = 20
	raUpdatesPerWord = 4
	raBatch          = 1024
)

// raWorkload's input is fixed by the HPCC rules (the LFSR update
// stream), so the seed does not change it.
type raWorkload struct{}

func newRA(int64) (workload, error) { return raWorkload{}, nil }

func (raWorkload) rep(o *obs.Obs, sp *spans, parent int) (sample, error) {
	gups := func() (r float64) {
		sp.call("baseline.GUPS", parent, func() {
			r = baseline.GUPS(raLog2PerPlace+1, raUpdatesPerWord, places)
		})
		return r
	}
	before := gups()
	var res randomaccess.Result
	s, err := runKernel(o, sp, parent, "randomaccess.Run", func(rt *core.Runtime) (float64, error) {
		var err error
		res, err = randomaccess.Run(rt, randomaccess.Config{
			Log2TablePerPlace: raLog2PerPlace,
			UpdatesPerWord:    raUpdatesPerWord,
			Batch:             raBatch,
			Verify:            true,
		})
		return res.Seconds, err
	}, nil)
	if err != nil {
		return s, fmt.Errorf("ra: %w", err)
	}
	if !res.Verified || res.Errors != 0 {
		return s, fmt.Errorf("ra: %d table words wrong after the verification pass", res.Errors)
	}
	class1 := (before + gups()) / 2
	s.rate = float64(res.Updates) / res.Seconds / 1e6
	s.class1 = class1 * 1e3
	s.ratio = s.rate / s.class1 // both sides use `places` cores
	s.lat = []float64{res.Seconds * 1e6}
	s.units = 2 * float64(res.Updates) / 1e3 // the timed pass and the verification pass
	s.named = []namedFigure{{"gups", res.GUPs, "GUP/s"}, {"class1_gups", class1, "GUP/s"}}
	return s, nil
}

// UTS: the paper's geometric tree (b0 = 4, root seed r = 19) cut at
// depth 15, 2,808,648 nodes, traversed under GLB with a FINISH_DENSE
// root. The tree is fixed rather than drawn from the seed: a geometric
// tree's size and shape swing by orders of magnitude with its root seed
// (a third of the seeds give a tree that dies out at once), and even
// trees of equal size steal, and so allocate, differently. With 2
// places GLB has a single victim, so the seed changes nothing here.
var utsTree = sha1rng.Geometric{B0: 4, Depth: 15, Seed: 19}

type utsWorkload struct {
	nodes uint64 // from the first sequential count, to catch a drifting oracle
}

func newUTS(int64) (workload, error) { return &utsWorkload{}, nil }

func (w *utsWorkload) rep(o *obs.Obs, sp *spans, parent int) (sample, error) {
	var res uts.Result
	var seqRate float64
	// The sequential traversal is the verification oracle; its timing
	// doubles as the Class-1 rate, and like every verification it falls
	// inside the repetition's set-up time.
	check := func() error {
		var seqNodes uint64
		sp.call("baseline.UTS", parent, func() { seqRate, seqNodes = baseline.UTS(utsTree) })
		if w.nodes == 0 {
			w.nodes = seqNodes
		}
		if res.Nodes != seqNodes || seqNodes != w.nodes {
			return fmt.Errorf("counted %d nodes, sequential count %d (first %d)", res.Nodes, seqNodes, w.nodes)
		}
		return nil
	}
	s, err := runKernel(o, sp, parent, "uts.Run", func(rt *core.Runtime) (float64, error) {
		var err error
		res, err = uts.Run(rt, uts.Config{Tree: utsTree, GLB: glb.Config{DenseFinish: true}})
		return res.Seconds, err
	}, check)
	if err != nil {
		return s, fmt.Errorf("uts: %w", err)
	}
	if s.layers != nil {
		s.layers.glb = res.Stats
	}
	s.rate = float64(res.Nodes) / res.Seconds / 1e6
	s.class1 = seqRate
	s.ratio = s.rate / places / s.class1
	s.lat = []float64{res.Seconds * 1e6}
	s.units = float64(res.Nodes) / 1e6
	s.named = []namedFigure{{"mnodes_s", s.rate, "Mnode/s"}, {"tree_nodes", float64(res.Nodes), "nodes"}}
	return s, nil
}

// Global FFT: 2^20 complex points, default (native) team collectives.
const fftLog2N = 20

type fftWorkload struct{ seed uint64 }

func newFFT(seed int64) (workload, error) { return fftWorkload{uint64(seed)}, nil }

func (w fftWorkload) rep(o *obs.Obs, sp *spans, parent int) (sample, error) {
	fft1 := func() (r float64) {
		sp.call("baseline.FFT", parent, func() { r = baseline.FFT(fftLog2N, w.seed) })
		return r
	}
	before := fft1()
	var res fftbench.Result
	s, err := runKernel(o, sp, parent, "fftbench.Run", func(rt *core.Runtime) (float64, error) {
		var err error
		res, err = fftbench.Run(rt, fftbench.Config{Log2N: fftLog2N, Seed: w.seed})
		return res.Seconds, err
	}, nil)
	if err != nil {
		return s, fmt.Errorf("fft: %w", err)
	}
	if tol := 1e-6 * float64(res.N); !(res.MaxErr >= 0 && res.MaxErr <= tol) {
		return s, fmt.Errorf("fft: max error %g against the sequential transform exceeds %g", res.MaxErr, tol)
	}
	gflops := (before + fft1()) / 2
	s.rate = res.Gflops * 1e3
	s.class1 = gflops * 1e3
	s.ratio = s.rate / places / s.class1
	s.lat = []float64{res.Seconds * 1e6}
	s.units = 1
	s.named = []namedFigure{{"gflops", res.Gflops, "Gflop/s"}, {"class1_gflops", gflops, "Gflop/s"}}
	return s, nil
}
