// Command apgas-bench regenerates the experiments of "X10 and APGAS at
// Petascale" (PPoPP 2014) on the in-process APGAS runtime: the eight
// weak-scaling panels of Figure 1, Tables 1 and 2, the Power 775
// interconnect model predictions, and the ablation studies for the finish
// patterns, the scalable broadcast, the collectives modes, and the UTS
// load balancer.
//
// Usage:
//
//	apgas-bench -exp all -scale small
//	apgas-bench -exp uts-ablation
//	apgas-bench -exp table2 -scale tiny
//	apgas-bench -exp list                        # enumerate experiments
//	apgas-bench -exp uts -metrics                # metrics snapshot on stderr
//	apgas-bench -exp uts -trace /tmp/uts.json    # Chrome trace_event JSON
//	apgas-bench -exp all -debug-addr :6060       # pprof + expvar + /telemetry while running
//	apgas-bench -places 4 -metrics-all           # cross-place merged metrics table
//	apgas-bench -exp telemetry -netsim           # telemetry smoke under the 775 model
//	apgas-bench -exp all -scale tiny -bench-json BENCH_tiny.json   # performance artifact
//	apgas-bench -exp uts -bench-json uts.json -bench-reps 5        # min-of-5 UTS artifact
//
// -bench-json emits the performance observatory's machine-readable
// artifact (validated by tracecheck -bench, gated by benchdiff): each
// experiment's best-of-reps series, curated metric deltas, and the
// critical-path attribution of finish/steal/collective time. It
// composes with -metrics (echoes each experiment's deltas to stderr)
// but not with -trace, -netsim, or the telemetry/chaos workloads, which
// manage their own observability.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"apgas/internal/collectives"
	"apgas/internal/harness"
	"apgas/internal/obs"
	"apgas/internal/telemetry"
	"apgas/internal/x10rt"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run; -exp list enumerates them")
	scaleFlag := flag.String("scale", "tiny", "tiny, small, or medium")
	traceFile := flag.String("trace", "",
		"write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)")
	traceDist := flag.String("trace-dist", "",
		"run with distributed (cross-place) tracing and write per-place traces "+
			"<prefix>-pN.json plus the flow-linked merged trace <prefix>-merged.json")
	metrics := flag.Bool("metrics", false,
		"attach metric deltas to experiment tables and print a snapshot to stderr at exit")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof, expvar, /telemetry, /metrics, and /debug/profilez on this address, e.g. localhost:6060")
	prof := flag.Bool("prof", false,
		"stamp pprof goroutine labels (place, pattern, kind, app) on every activity")
	profCPU := flag.String("prof-cpu", "",
		"capture a CPU profile of the run to this file (implies -prof); "+
			"summarize per label with tracecheck -profile")
	denseBurn := flag.Int("dense-burn", 0,
		"dense run: spin this many iterations of CPU work inside each phase, "+
			"so short profiling runs collect enough samples (0 = off)")
	places := flag.Int("places", 4, "places for the telemetry and chaos runs (-exp telemetry, -exp chaos)")
	metricsAll := flag.Bool("metrics-all", false,
		"run the telemetry workload and print the merged cross-place metrics table "+
			"(sum, min@place, max@place, per-place)")
	useNetsim := flag.Bool("netsim", false,
		"telemetry run: inject Power 775-model latency into the transport")
	chaosSeeds := flag.Int("chaos-seeds", 8, "seeds for the chaos run (-exp chaos)")
	watchdog := flag.Duration("watchdog", 0,
		"telemetry run: enable the finish stall watchdog with this window (0 = off)")
	flightDump := flag.String("flight-dump", "",
		"telemetry run: write the flight recorder (JSON Lines) to this file at exit")
	benchJSON := flag.String("bench-json", "",
		"write the performance artifact (BENCH JSON) to this file: best-of-reps series, "+
			"metric deltas, critical-path buckets; validate with tracecheck -bench, gate with benchdiff")
	benchReps := flag.Int("bench-reps", 3, "repetitions per experiment for -bench-json (best kept)")
	wireLedger := flag.Bool("wire", false,
		"telemetry/dense runs: attach the wire ledger (per-handler/per-link message cost attribution) "+
			"and assert its sum-equality against the transport counters at exit")
	wireDump := flag.String("wire-dump", "",
		"telemetry/dense runs: write the wire observatory dump (JSON) to this file at exit; "+
			"implies -wire, validate with tracecheck -wire")
	batch := flag.Bool("batch", false,
		"run the experiment and telemetry runtimes over the batching wire path (per-link frame coalescing)")
	batchDelay := flag.Duration("batch-delay", 200*time.Microsecond,
		"with -batch: bound on how long a queued frame may wait before its batch flushes")
	compressMin := flag.Int("compress-min", 0,
		"with -batch: compress batch payloads at least this many encoded bytes (0 = off)")
	flag.Parse()

	if *wireDump != "" {
		*wireLedger = true
	}

	if *batch {
		// Runtime-based experiments get their transport from this hook;
		// the transport-* panels build their own meshes and take the
		// batching decision from their own series definitions.
		harness.TransportFactory = func(places int) (x10rt.Transport, error) {
			inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
			if err != nil {
				return nil, err
			}
			return x10rt.NewBatchingTransport(inner, x10rt.BatchOptions{
				MaxDelay:    *batchDelay,
				CompressMin: *compressMin,
			}), nil
		}
	}

	// -metrics-all is a request for the cross-place telemetry view, so it
	// selects the telemetry workload regardless of -exp.
	if *metricsAll && *exp == "all" {
		*exp = "telemetry"
	}

	// -bench-json swaps the process-global observability per repetition,
	// so it cannot coexist with modes that install or depend on their own.
	if *benchJSON != "" {
		reason := ""
		switch {
		case *traceFile != "":
			reason = "-trace (the artifact collector installs a fresh tracer per repetition)"
		case *traceDist != "":
			reason = "-trace-dist (the artifact collector installs a fresh tracer per repetition)"
		case *useNetsim:
			reason = "-netsim (artifacts fingerprint the real machine, not a modelled one)"
		case *metricsAll:
			reason = "-metrics-all (a telemetry-workload view)"
		case *exp == "telemetry" || *exp == "chaos" || *exp == "dense" || *exp == "list":
			reason = fmt.Sprintf("-exp %s (not a measured series)", *exp)
		}
		if reason != "" {
			fmt.Fprintf(os.Stderr, "apgas-bench: -bench-json cannot be combined with %s\n", reason)
			os.Exit(2)
		}
	}

	var scale harness.Scale
	switch *scaleFlag {
	case "tiny":
		scale = harness.Tiny
	case "small":
		scale = harness.Small
	case "medium":
		scale = harness.Medium
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	// Observability: the harness builds runtimes internally, so the obs
	// layer is installed process-wide rather than plumbed through.
	var o *obs.Obs
	switch {
	case *traceDist != "":
		o = obs.NewTracingDist()
	case *traceFile != "":
		o = obs.NewTracing()
	case *metrics || *debugAddr != "" || *prof || *profCPU != "":
		o = obs.New()
	}
	if o != nil {
		if *prof || *profCPU != "" {
			o.EnableProfiling("bench")
		}
		obs.SetGlobal(o)
	}
	if *debugAddr != "" {
		// The debug server carries the continuous profiling plane: the
		// profile ring behind /debug/profilez, plus a health sampler
		// feeding per-place runtime gauges into /telemetry and /metrics.
		ds, stopPlane, err := telemetry.StartDebugPlane(*debugAddr, o, *places)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: %v\n", err)
			os.Exit(1)
		}
		defer stopPlane()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/, /debug/vars, /debug/profilez, /telemetry, /metrics, and /wire\n", ds.Addr)
	}
	if *profCPU != "" {
		f, err := os.Create(*profCPU)
		if err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "apgas-bench: close cpu profile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "cpu profile written to %s (summarize: tracecheck -profile %s)\n", *profCPU, *profCPU)
		}()
	}

	if *exp == "dense" {
		if err := runDense(denseOptions{
			places:      *places,
			tracePrefix: *traceDist,
			o:           o,
			burn:        *denseBurn,
			wire:        *wireLedger,
			wireDump:    *wireDump,
			batch:       *batch,
			batchDelay:  *batchDelay,
			compressMin: *compressMin,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *exp == "chaos" {
		if err := runChaos(chaosOptions{places: *places, seeds: *chaosSeeds}); err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *exp == "telemetry" {
		if err := runTelemetry(telemetryOptions{
			places:      *places,
			useNetsim:   *useNetsim,
			metricsAll:  *metricsAll,
			watchdog:    *watchdog,
			flightDump:  *flightDump,
			batch:       *batch,
			batchDelay:  *batchDelay,
			compressMin: *compressMin,
			wire:        *wireLedger,
			wireDump:    *wireDump,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*exp, scale, *benchJSON, *benchReps, *metrics); err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*exp, scale); err != nil {
		fmt.Fprintf(os.Stderr, "apgas-bench: %v\n", err)
		os.Exit(1)
	}

	if *metrics {
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		o.Metrics.Snapshot().WriteText(os.Stderr)
	}
	if *traceFile != "" {
		if err := o.Trace.WriteChromeFile(*traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "--- trace summary (full trace: %s) ---\n", *traceFile)
		o.Trace.WriteSummary(os.Stderr)
	}
	if *traceDist != "" {
		if err := writeDistTraces(o.Trace, *traceDist, 0); err != nil {
			fmt.Fprintf(os.Stderr, "apgas-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// experiments maps every -exp name that is not a Figure 1 panel to a
// one-line description, for -exp list.
var experiments = map[string]string{
	"all":             "every panel, table, and ablation below",
	"table1":          "Table 1: finish-pattern message counts",
	"table2":          "Table 2: finish-pattern latencies",
	"netsim":          "Power 775 interconnect model predictions",
	"telemetry":       "cross-place telemetry smoke: merged metrics vs per-place transport stats",
	"chaos":           "fault-injection sweep: finish invariants under seeded delay/reorder/partition chaos",
	"dense":           "FINISH_DENSE all-to-all + collective + AtDirect workload; with -trace-dist, the merged distributed-trace demo",
	"finish":          "finish-pattern ablation",
	"broadcast":       "scalable vs sequential broadcast ablation",
	"uts-ablation":    "UTS load-balancer ablation",
	"teams":           "native vs emulated collectives",
	"seqref":          "sequential reference kernels",
	"spmd-bcast":      "FINISH_SPMD spawning-tree broadcast sweep (pins the finish-control critical-path bucket)",
	"transport":       "wire microbenchmark: small control frames over a local TCP mesh, unbatched",
	"transport-batch": "wire microbenchmark: small control frames through per-link batching (≥3x gate)",
	"transport-large": "wire microbenchmark: 1 MiB payloads through the batching path",
	"wire":            "wire observatory microbenchmark: per-message encode/decode ns through the ledger (lower is better)",
	"onesided":        "one-sided microbenchmark: 1 MiB AsyncCopyPut bandwidth through the v5 frame lane (≥50%-of-memcpy gate)",
}

// panelOrder is the series execution order for -exp all and -bench-json.
var panelOrder = []string{
	"hpl", "fft", "ra", "stream", "uts", "kmeans", "sw", "bc", "spmd-bcast",
	"transport", "transport-batch", "transport-large", "wire", "onesided",
}

// panels maps -exp names to the harness series they regenerate.
var panels = map[string]func(harness.Scale) (harness.Series, error){
	"hpl":             harness.Fig1HPL,
	"fft":             harness.Fig1FFT,
	"ra":              harness.Fig1RandomAccess,
	"stream":          harness.Fig1Stream,
	"uts":             harness.Fig1UTS,
	"kmeans":          harness.Fig1KMeans,
	"sw":              harness.Fig1SW,
	"bc":              harness.Fig1BC,
	"spmd-bcast":      harness.SPMDBroadcastSeries,
	"transport":       harness.TransportSmallSeries,
	"transport-batch": harness.TransportSmallBatchSeries,
	"transport-large": harness.TransportLargeBatchSeries,
	"wire":            harness.WireSeries,
	"onesided":        harness.OneSidedSeries,
}

func run(exp string, scale harness.Scale) error {
	// With profiling on, each experiment's samples carry its name as the
	// "app" pprof label, so one -exp all profile partitions by panel.
	setApp := func(name string) { obs.Global().Profiler().SetApp(name) }
	setApp(exp)
	series := func(fn func(harness.Scale) (harness.Series, error)) error {
		s, err := fn(scale)
		if err != nil {
			return err
		}
		s.Print(os.Stdout)
		fmt.Println()
		return nil
	}
	table := func(t harness.Table, err error) error {
		if err != nil {
			return err
		}
		t.Print(os.Stdout)
		fmt.Println()
		return nil
	}

	switch exp {
	case "list":
		seen := make(map[string]bool, len(panels)+len(experiments))
		names := make([]string, 0, len(panels)+len(experiments))
		for name := range panels {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		for name := range experiments {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			desc, ok := experiments[name]
			if !ok {
				desc = "Figure 1 panel"
			}
			fmt.Printf("%-14s %s\n", name, desc)
		}
		return nil
	case "all":
		for _, name := range panelOrder {
			setApp(name)
			if err := series(panels[name]); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		setApp(exp)
		if err := table(harness.Table1(scale)); err != nil {
			return err
		}
		if err := table(harness.Table2(scale)); err != nil {
			return err
		}
		if err := table(harness.ModelTable(), nil); err != nil {
			return err
		}
		places := scale.PlaceSweep()[len(scale.PlaceSweep())-1]
		if err := table(harness.FinishAblationTable(places, 10)); err != nil {
			return err
		}
		if err := table(harness.BroadcastAblation(places, 10)); err != nil {
			return err
		}
		if err := table(harness.UTSAblation(places, 12)); err != nil {
			return err
		}
		for _, mode := range []collectives.Mode{collectives.ModeNative, collectives.ModeEmulated} {
			s, err := harness.TeamModeSeries(scale, mode)
			if err != nil {
				return err
			}
			s.Print(os.Stdout)
			fmt.Println()
		}
		return table(harness.SequentialReference(), nil)
	case "table1":
		return table(harness.Table1(scale))
	case "table2":
		return table(harness.Table2(scale))
	case "netsim":
		return table(harness.ModelTable(), nil)
	case "finish":
		places := scale.PlaceSweep()[len(scale.PlaceSweep())-1]
		return table(harness.FinishAblationTable(places, 20))
	case "broadcast":
		places := scale.PlaceSweep()[len(scale.PlaceSweep())-1]
		return table(harness.BroadcastAblation(places, 20))
	case "uts-ablation":
		places := scale.PlaceSweep()[len(scale.PlaceSweep())-1]
		depth := map[harness.Scale]int{harness.Tiny: 11, harness.Small: 13, harness.Medium: 14}[scale]
		return table(harness.UTSAblation(places, depth))
	case "teams":
		for _, mode := range []collectives.Mode{collectives.ModeNative, collectives.ModeEmulated} {
			s, err := harness.TeamModeSeries(scale, mode)
			if err != nil {
				return err
			}
			s.Print(os.Stdout)
			fmt.Println()
		}
		return nil
	case "seqref":
		return table(harness.SequentialReference(), nil)
	default:
		fn, ok := panels[exp]
		if !ok {
			names := make([]string, 0, len(panels))
			for name := range panels {
				names = append(names, name)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown experiment %q; panels are %s (try -exp list)",
				exp, strings.Join(names, ", "))
		}
		return series(fn)
	}
}
