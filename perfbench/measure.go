package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"apgas/internal/obs"
)

// workload runs closed-loop repetitions of one input set.
type workload interface {
	// rep runs one repetition and verifies its output; a non-nil error
	// marks the repetition failed. o is nil on untraced repetitions; on
	// traced ones the runtime reports into it and the sample carries the
	// layer counters. sp records the benchmark's own spans under parent.
	rep(o *obs.Obs, sp *spans, parent int) (sample, error)
}

// workloads maps each name to the constructor that builds its inputs
// from the seed, once per process.
var workloads = map[string]func(seed int64) (workload, error){
	"ra":   newRA,
	"uts":  newUTS,
	"fft":  newFFT,
	"wire": newWire,
}

// sample is one verified repetition.
type sample struct {
	wall   float64   // s: the repetition's APGAS part, construction to teardown
	kernel float64   // s: the kernel's own timed section inside wall
	rate   float64   // million work units per second
	class1 float64   // million work units per second of the Class-1 comparison
	ratio  float64   // per-core rate ÷ per-core Class-1 rate
	lat    []float64 // µs: closed-loop unit latencies (kernel passes or round trips)
	allocB uint64    // bytes allocated by the APGAS part
	gcs    uint32    // GC cycles during the APGAS part
	units  float64   // work done, in the per-layer counts' unit (see perLayer)
	layers *layers   // traced repetitions only
	// named holds the workload's own figures under the names and units
	// the paper's tables use, for the human-readable summary.
	named []namedFigure
}

type namedFigure struct {
	name  string
	value float64
	unit  string
}

// memMark is a point on the allocation counters.
type memMark struct {
	alloc uint64
	gcs   uint32
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC}
}

func (m memMark) since() (alloc uint64, gcs uint32) {
	now := markMem()
	return now.alloc - m.alloc, now.gcs - m.gcs
}

// measurement is everything one run of the command observed.
type measurement struct {
	workload  string
	attempted int
	failed    int
	errs      []error
	plain     []sample // untraced repetitions (the warm-up excluded)
	traced    []sample // traced repetitions
	probes    probeResults
	spans     *spans
}

// measure builds the workload's inputs, runs one warm-up repetition,
// then repeats until d has elapsed. In traced mode it alternates
// untraced and traced repetitions, so the tracing overhead is measured
// on the same machine state, and finishes with the layer probes.
func measure(name string, seed int64, d time.Duration, traced bool) (*measurement, error) {
	sp := &spans{t0: time.Now()}
	if !traced {
		sp = nil
	}
	id := sp.begin("setup.inputs", 0)
	w, err := workloads[name](seed)
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: building inputs: %w", name, err)
	}
	m := &measurement{workload: name, spans: sp}
	one := func(trace, keep bool) {
		m.attempted++
		var o *obs.Obs
		var rsp *spans
		if trace {
			o, rsp = obs.New(), sp
		}
		// Every repetition starts from a collected heap, so garbage left
		// by the previous one (or by its Class-1 comparison) is not
		// charged to this one.
		runtime.GC()
		id := rsp.begin("rep", 0)
		s, err := w.rep(o, rsp, id)
		rsp.end(id)
		switch {
		case err != nil:
			m.failed++
			m.errs = append(m.errs, err)
		case !keep:
		case trace:
			m.traced = append(m.traced, s)
		default:
			m.plain = append(m.plain, s)
		}
	}
	one(false, false)
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		// Past the deadline, stop once every kind of repetition has a
		// sample, or at once when any repetition failed.
		enough := len(m.plain) > 0 && (!traced || len(m.traced) > 0)
		if !time.Now().Before(deadline) && (enough || m.failed > 0) {
			break
		}
		one(traced && i%2 == 1, true)
	}
	if traced {
		m.probes = runProbes(sp, name != "wire")
	}
	return m, nil
}

// endToEnd derives the end-to-end metrics from the untraced repetitions.
// Only figures that hold still on a shared 2-CPU host are gated: the
// absolute rates and latencies swing with the host's load (a fixed
// single-thread loop ran anywhere from 1.8 to 3.9 M SHA1/s within one
// minute), while class1_ratio divides each repetition's rate by a
// Class-1 run made right next to it, so the host's speed cancels. The
// absolute figures are printed on the summary lines and, from traced
// runs, as the apps.* per-layer metrics.
func (m *measurement) endToEnd() map[string]metric {
	var setup, alloc, ratio []float64
	for _, s := range m.plain {
		setup = append(setup, s.wall-s.kernel)
		alloc = append(alloc, float64(s.allocB)/1e6)
		ratio = append(ratio, s.ratio)
	}
	return map[string]metric{
		"setup_s":      {median(setup), "s"},
		"alloc_mb":     {median(alloc), "MB"},
		"class1_ratio": {median(ratio), "ratio"},
	}
}

// printSummary writes the human-readable lines that precede the result:
// the end-to-end figures under the paper's own names, the failure
// fraction, and any failed repetition's error.
func printSummary(m *measurement) {
	fmt.Printf("workload=%s reps=%d traced=%d attempted=%d failed=%d fail_frac=%.4f\n",
		m.workload, len(m.plain), len(m.traced), m.attempted, m.failed,
		float64(m.failed)/float64(max(m.attempted, 1)))
	for i, err := range m.errs {
		if i == 5 {
			fmt.Printf("  ... %d more failures\n", len(m.errs)-i)
			break
		}
		fmt.Printf("  failed repetition: %v\n", err)
	}
	if len(m.plain) == 0 {
		return
	}
	byName := map[string][]float64{}
	var order []string
	units := map[string]string{}
	for _, s := range m.plain {
		for _, f := range s.named {
			if _, ok := units[f.name]; !ok {
				order = append(order, f.name)
				units[f.name] = f.unit
			}
			byName[f.name] = append(byName[f.name], f.value)
		}
	}
	for _, n := range order {
		fmt.Printf("  %-14s %12.6g %s (median of %d)\n", n, median(byName[n]), units[n], len(byName[n]))
	}
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
