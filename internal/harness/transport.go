package harness

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"apgas/internal/obs"
	"apgas/internal/x10rt"
)

// TransportFactory, when non-nil, supplies the transport for every
// experiment-series runtime the harness builds. apgas-bench sets it
// from -batch / -batch-delay / -compress-min so the panel suite can be
// rerun over the batching wire path; nil keeps the default
// ChanTransport. The ablation tables are exempt: they count messages
// through their own counting transports and must not be perturbed. The
// runtime takes ownership of the returned transport and closes it with
// the runtime.
var TransportFactory func(places int) (x10rt.Transport, error)

// transportPayload is the small-control-frame stand-in for the wire
// microbenchmarks: the size class of a finish credit or a steal
// request, the traffic §3.3's aggregation discipline exists for.
type transportPayload struct {
	Seq int32
	Arg int32
}

func init() {
	// Hand-written binary codec for the microbenchmark payload: two
	// little-endian uint32s, no reflection. This is the shape the codec
	// speedup gate measures, so it takes the fast path a production
	// control frame would. ([]byte payloads have a built-in codec.)
	x10rt.RegisterWireCodec(transportPayload{}, &x10rt.WireCodec{
		Name: "harness:transportPayload",
		Encode: func(dst []byte, v any) ([]byte, error) {
			p := v.(transportPayload)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Seq))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Arg))
			return dst, nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 8 {
				return nil, fmt.Errorf("transportPayload: %d bytes, want 8", len(data))
			}
			return transportPayload{
				Seq: int32(binary.LittleEndian.Uint32(data)),
				Arg: int32(binary.LittleEndian.Uint32(data[4:])),
			}, nil
		},
	})
}

// transportHandler is where the microbenchmarks register, clear of the
// runtime's reserved range and of transporttest's slot.
const transportHandler = x10rt.UserHandlerBase + 200

// smallFrameBytes is the modeled size of one small control frame.
const smallFrameBytes = 24

// largeFrameBytes is the payload size of the bulk-data microbenchmark.
const largeFrameBytes = 1 << 20

// transportRun is one measured mesh run.
type transportRun struct {
	seconds float64
	msgs    int
	bytes   int
	batches uint64 // batches forwarded by the wrappers (0 unbatched)
	wire    uint64 // on-the-wire bytes, summed over endpoint egress
}

// transportMesh builds a local TCP mesh — a real serializing wire, not
// the in-process chan fast path — optionally wrapping every endpoint in
// a batching layer.
func transportMesh(places int, batch bool, compressMin int) ([]x10rt.Transport, func(), error) {
	mesh, err := x10rt.NewLocalTCPMesh(places)
	if err != nil {
		return nil, nil, err
	}
	eps := make([]x10rt.Transport, places)
	if !batch {
		for p, tr := range mesh {
			eps[p] = tr
		}
		return eps, func() {
			for _, tr := range mesh {
				tr.Close()
			}
		}, nil
	}
	wrapped := make([]*x10rt.BatchingTransport, places)
	for p, tr := range mesh {
		wrapped[p] = x10rt.NewBatchingTransport(tr, x10rt.BatchOptions{CompressMin: compressMin})
		eps[p] = wrapped[p]
	}
	return eps, func() {
		for _, tr := range wrapped {
			tr.Close() // closes the TCP endpoint underneath
		}
	}, nil
}

// runTransportMesh drives one mesh: every place sends perPlace messages
// of msgBytes each (round-robin over the other places), and the run is
// timed from first send to last delivery. Endpoint 0's metrics attach
// to the process-global registry so -bench-json artifacts carry the
// x10rt.batch.* counters and histograms of a representative endpoint.
// lg, when non-nil, is attached to every endpoint so the run's traffic
// is cost-attributed (the wire observatory series).
func runTransportMesh(places, perPlace int, batch bool, compressMin, msgBytes int, lg *x10rt.WireLedger, payload func(seq int) any) (transportRun, error) {
	eps, closeAll, err := transportMesh(places, batch, compressMin)
	if err != nil {
		return transportRun{}, err
	}
	defer closeAll()
	var got atomic.Int64
	for _, ep := range eps {
		if err := ep.Register(transportHandler, func(src, dst int, payload any) { got.Add(1) }); err != nil {
			return transportRun{}, err
		}
		if lg != nil {
			ep.AttachWireLedger(lg)
		}
	}
	if o := obs.Global(); o != nil {
		eps[0].AttachMetrics(o.Metrics)
	}

	total := int64(places * perPlace)
	sendErr := make(chan error, places)
	start := time.Now()
	var wg sync.WaitGroup
	for src := 0; src < places; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perPlace; i++ {
				dst := (src + 1 + i%(places-1)) % places
				if err := eps[src].Send(src, dst, transportHandler, payload(i), msgBytes, x10rt.ControlClass); err != nil {
					sendErr <- fmt.Errorf("send %d->%d: %w", src, dst, err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	select {
	case err := <-sendErr:
		return transportRun{}, err
	default:
	}
	for _, ep := range eps {
		_ = ep.Flush(-1)
	}
	deadline := time.Now().Add(30 * time.Second)
	for got.Load() < total {
		if time.Now().After(deadline) {
			return transportRun{}, fmt.Errorf("transport places=%d: %d/%d delivered after 30s", places, got.Load(), total)
		}
		time.Sleep(50 * time.Microsecond)
	}
	run := transportRun{
		seconds: time.Since(start).Seconds(),
		msgs:    int(total),
		bytes:   int(total) * msgBytes,
	}
	for _, ep := range eps {
		if bt, ok := ep.(*x10rt.BatchingTransport); ok {
			b, _ := bt.BatchStats()
			run.batches += b
		}
		run.wire += ep.Stats().WireBytes
	}
	return run, nil
}

// smallFramePayload is the small-frame microbenchmarks' message body.
func smallFramePayload(seq int) any { return transportPayload{Seq: int32(seq), Arg: int32(seq * 3)} }

// runSmallFrames is the small-control-frame microbenchmark: the ≥3x
// batching target of the wire-path overhaul and the ≥3x
// codec-over-gob-fallback target are measured on this shape.
func runSmallFrames(places, perPlace int, batch bool, compressMin int) (transportRun, error) {
	return runTransportMesh(places, perPlace, batch, compressMin, smallFrameBytes, nil,
		smallFramePayload)
}

// runLargeFrames is the bulk-data microbenchmark: 1 MiB payloads, where
// batching must stay out of the way rather than win.
func runLargeFrames(places, perPlace int, batch bool, compressMin int) (transportRun, error) {
	buf := make([]byte, largeFrameBytes)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	return runTransportMesh(places, perPlace, batch, compressMin, largeFrameBytes, nil,
		func(seq int) any { return buf })
}

// transportSmallSeries sweeps the small-frame microbenchmark over the
// scale's place counts (from 2: one place has no wire).
func transportSmallSeries(name string, batch bool) func(Scale) (Series, error) {
	return func(s Scale) (Series, error) {
		perPlace := map[Scale]int{Tiny: 3000, Small: 6000, Medium: 10000}[s]
		out := Series{Name: name, AggregateUnit: "msg/s", PerUnitUnit: "msg/s/place"}
		for _, places := range s.PlaceSweep() {
			if places < 2 {
				continue
			}
			run, err := runSmallFrames(places, perPlace, batch, 0)
			if err != nil {
				return out, err
			}
			rate := float64(run.msgs) / run.seconds
			note := fmt.Sprintf("%d msgs, wire=%dB", run.msgs, run.wire)
			if batch {
				note += fmt.Sprintf(", %d batches", run.batches)
			}
			out.Points = append(out.Points, Point{
				Places:    places,
				Aggregate: rate,
				PerUnit:   rate / float64(places),
				Note:      note,
			})
		}
		return out, nil
	}
}

// TransportSmallSeries measures the unbatched wire path on small
// control frames over a real local TCP mesh: one v4 frame and one
// write per message, the baseline the batching series is gated
// against.
func TransportSmallSeries(s Scale) (Series, error) {
	return transportSmallSeries("Transport small frames", false)(s)
}

// TransportSmallBatchSeries is the same microbenchmark through the
// batching wire path: per-link coalescing into multi-record v4 frames.
// It must run ≥3x the unbatched series (see TestTransportBatchSpeedup,
// asserted by `make bench-smoke`).
func TransportSmallBatchSeries(s Scale) (Series, error) {
	return transportSmallSeries("Transport small frames (batched)", true)(s)
}

// WireSeries is the wire observatory microbenchmark: small control
// frames through the batched TCP wire with a WireLedger attached, so
// every message's encode/decode cost is attributed. The aggregate
// is encode ns per message and the per-unit column decode ns per
// message — serialization cost, so lower is better (TimeBased), and
// benchdiff flags a codec regression as such. The series also enforces
// the ledger's sum-equality against the transport counters: a point
// where the attributed bytes disagree with the wire fails the run.
func WireSeries(s Scale) (Series, error) {
	perPlace := map[Scale]int{Tiny: 2000, Small: 4000, Medium: 8000}[s]
	out := Series{
		Name:          "Wire ledger serialization cost",
		AggregateUnit: "enc-ns/msg",
		PerUnitUnit:   "dec-ns/msg",
		TimeBased:     true,
	}
	for _, places := range s.PlaceSweep() {
		if places < 2 {
			continue
		}
		lg := x10rt.NewWireLedger(places, nil)
		run, err := runTransportMesh(places, perPlace, true, 0, smallFrameBytes, lg,
			smallFramePayload)
		if err != nil {
			return out, err
		}
		snap := lg.Snapshot()
		if got, want := snap.TotalPayloadBytes(), uint64(run.bytes); got != want {
			return out, fmt.Errorf("wire places=%d: ledger payload bytes %d != sent bytes %d", places, got, want)
		}
		if got, want := snap.TotalWireBytes(), run.wire; got != want {
			return out, fmt.Errorf("wire places=%d: ledger wire bytes %d != transport wire bytes %d", places, got, want)
		}
		var msgs, recv, encNs, decNs uint64
		for _, h := range snap.Handlers {
			msgs += h.Msgs
			recv += h.RecvMsgs
			encNs += h.EncNs
			decNs += h.DecNs
		}
		if msgs != uint64(run.msgs) || recv != uint64(run.msgs) {
			return out, fmt.Errorf("wire places=%d: ledger msgs=%d recv=%d, want %d", places, msgs, recv, run.msgs)
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: float64(encNs) / float64(msgs),
			PerUnit:   float64(decNs) / float64(recv),
			Note:      fmt.Sprintf("%d msgs, wire=%dB, %d batches, sums OK", run.msgs, run.wire, run.batches),
		})
	}
	return out, nil
}

// TransportLargeBatchSeries pushes 1 MiB payloads through the batching
// wire path: bulk data takes the idle/size fast paths, so throughput
// must track the unbatched wire. MB/s aggregate over all links.
func TransportLargeBatchSeries(s Scale) (Series, error) {
	perPlace := map[Scale]int{Tiny: 24, Small: 32, Medium: 48}[s]
	out := Series{Name: "Transport 1MiB frames (batched)", AggregateUnit: "MB/s", PerUnitUnit: "MB/s/place"}
	for _, places := range s.PlaceSweep() {
		if places < 2 {
			continue
		}
		run, err := runLargeFrames(places, perPlace, true, 0)
		if err != nil {
			return out, err
		}
		rate := float64(run.bytes) / (1 << 20) / run.seconds
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: rate,
			PerUnit:   rate / float64(places),
			Note:      fmt.Sprintf("%d MiB, %d batches", run.bytes>>20, run.batches),
		})
	}
	return out, nil
}
