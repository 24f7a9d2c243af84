package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"apgas/internal/core"
	"apgas/internal/netsim"
	"apgas/internal/obs"
	"apgas/internal/telemetry"
	"apgas/internal/x10rt"
)

// telemetryOptions configures the telemetry smoke run (-exp telemetry).
type telemetryOptions struct {
	places      int
	useNetsim   bool          // route messages through the Power 775 latency model
	metricsAll  bool          // print the merged cross-place table
	watchdog    time.Duration // stall watchdog window (0 = off)
	flightDump  string        // write the flight recorder here at exit ("" = off)
	batch       bool          // stack the batching wire path on the transport
	batchDelay  time.Duration // with batch: flush-delay bound
	compressMin int           // with batch: compression threshold (0 = off)
	wire        bool          // attach the wire ledger and assert sum-equality at exit
	wireDump    string        // write the wire observatory dump here ("" = off)
}

// runTelemetry drives a deliberately imbalanced multi-place workload,
// pulls every place's metrics through the telemetry plane, and verifies
// the plane's core invariant: the aggregated x10rt message totals equal
// the sum of the per-place transport stats, which equal the transport's
// own global counters (telemetry traffic is excluded from all three).
// It is both the -metrics-all demo and the `make telemetry` smoke test.
func runTelemetry(opts telemetryOptions) error {
	o := obs.New()

	var chanOpts x10rt.ChanOptions
	chanOpts.Places = opts.places
	if opts.useNetsim {
		m := netsim.Power775()
		m.CoresPerOctant = 2 // tiny hosts so even 4 places span hops
		m.OctantsPerDrawer = 2
		m.DrawersPerSupernode = 1
		lat := m.LatencyFunc(netsim.LatencyParams{
			Local:          200 * time.Nanosecond,
			PerHop:         2 * time.Microsecond,
			BytesPerSecond: 1e9,
			Scale:          1,
		})
		chanOpts.Latency = func(src, dst, bytes int, class x10rt.Class) time.Duration {
			return lat(src, dst, bytes, uint8(class))
		}
	}
	inner, err := x10rt.NewChanTransport(chanOpts)
	if err != nil {
		return err
	}
	var tr x10rt.Transport = inner
	if opts.batch {
		// The sum-equality invariant must survive the batching layer:
		// batching changes how messages travel, never how many are
		// counted where.
		tr = x10rt.NewBatchingTransport(inner, x10rt.BatchOptions{
			MaxDelay:    opts.batchDelay,
			CompressMin: opts.compressMin,
		})
	}

	var flightOut io.Writer
	if opts.flightDump != "" {
		f, err := os.Create(opts.flightDump)
		if err != nil {
			return err
		}
		defer f.Close()
		flightOut = f
	}
	rt, err := core.NewRuntime(core.Config{
		Places:        opts.places,
		PlacesPerHost: 2,
		Transport:     tr,
		OwnTransport:  true,
		Obs:           o,
		FlightDump:    flightOut,
		WireLedger:    opts.wire,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	start := time.Now()

	plane, err := telemetry.Attach(rt)
	if err != nil {
		return err
	}
	telemetry.SetCurrent(plane)
	defer telemetry.SetCurrent(nil)
	stopSig := telemetry.DumpOnSignal(rt, os.Stderr)
	defer stopSig()
	if opts.watchdog > 0 {
		w := telemetry.StartWatchdog(rt, telemetry.WatchdogOptions{Window: opts.watchdog})
		defer w.Stop()
	}

	// An imbalanced workload: everyone spawns locally via broadcast, then
	// place 0 sends q sized messages to each place q — so the per-place
	// min/max columns have something to disagree about.
	places := opts.places
	err = rt.Run(func(c *core.Ctx) {
		g := core.WorldGroup(rt)
		for round := 0; round < 3; round++ {
			if err := g.Broadcast(c, func(cc *core.Ctx) {
				cc.Async(func(*core.Ctx) {})
			}); err != nil {
				panic(err)
			}
		}
		for q := 1; q < places; q++ {
			for k := 0; k < q; k++ {
				c.AtAsyncSized(core.Place(q), 256, func(*core.Ctx) {})
			}
		}
	})
	if err != nil {
		return err
	}
	// Drain trailing finish cleanup (and, with -batch, queued batches)
	// before comparing counters.
	tr.(interface{ Quiesce() }).Quiesce()

	rep, err := plane.Report(10 * time.Second)
	if err != nil {
		return err
	}
	if opts.metricsAll {
		rep.WriteTable(os.Stdout)
	}

	// The invariant the whole plane rests on. WireBytes rides along:
	// the on-the-wire total (post-batch, post-compression) must also be
	// exactly the sum of the per-place egress.
	total := tr.Stats()
	var sum x10rt.Stats
	for q := 0; q < places; q++ {
		sum = sum.Add(tr.PlaceStats(q))
	}
	if sum != total {
		return fmt.Errorf("telemetry: sum of per-place stats %v != transport stats %v", sum, total)
	}
	for i := 0; i < 3; i++ {
		cls := x10rt.Class(i).String()
		if got, want := rep.Merged.Counter("x10rt.msgs."+cls), total.Messages[i]; got != want {
			return fmt.Errorf("telemetry: merged x10rt.msgs.%s = %d, transport %d", cls, got, want)
		}
		if got, want := rep.Merged.Counter("x10rt.bytes."+cls), total.Bytes[i]; got != want {
			return fmt.Errorf("telemetry: merged x10rt.bytes.%s = %d, transport %d", cls, got, want)
		}
	}
	if got, want := rep.Merged.Counter("x10rt.bytes.wire"), total.WireBytes; got != want {
		return fmt.Errorf("telemetry: merged x10rt.bytes.wire = %d, transport %d", got, want)
	}
	if total.TotalMessages() == 0 {
		return fmt.Errorf("telemetry: workload moved no messages; smoke is vacuous")
	}
	fmt.Printf("telemetry: OK — %d places, aggregated msgs=%d bytes=%d == sum of per-place transport stats\n",
		places, total.TotalMessages(), total.TotalBytes())

	if opts.wire {
		// Third leg of the sum-equality: the wire ledger's attribution
		// must re-sum to the same transport counters checked above.
		if err := writeWireDump(rt, time.Since(start), opts.wireDump); err != nil {
			return err
		}
	}

	if flightOut != nil {
		if err := o.FlightRecorder().WriteDump(flightOut); err != nil {
			return fmt.Errorf("telemetry: write flight dump: %w", err)
		}
		fmt.Fprintf(os.Stderr, "flight recorder dumped to %s\n", opts.flightDump)
	}
	return nil
}
