package harness

import (
	"encoding/gob"
	"testing"
)

// gobOnlyPayload has the shape of transportPayload but is registered
// only with gob, so it rides the v4 frame's typeRef-0 gob fallback: the
// reference TestCodecSpeedup measures the codec against.
type gobOnlyPayload struct {
	Seq int32
	Arg int32
}

func init() { gob.Register(gobOnlyPayload{}) }

// bestSmallFrameRate is the best-of-2 message rate of the 2-place
// small-frame microbenchmark (4000 messages per place) with the given
// payload; best-of-2 guards against scheduler noise.
func bestSmallFrameRate(t *testing.T, batch bool, payload func(seq int) any) float64 {
	t.Helper()
	const places, perPlace = 2, 4000
	rate := 0.0
	for rep := 0; rep < 2; rep++ {
		run, err := runTransportMesh(places, perPlace, batch, 0, smallFrameBytes, nil, payload)
		if err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		if r := float64(run.msgs) / run.seconds; r > rate {
			rate = r
		}
	}
	return rate
}

// TestTransportBatchSpeedup is the wire-path overhaul's acceptance
// gate, asserted by `make bench-smoke`: on the small-control-frame
// microbenchmark over a real local TCP mesh, the batching transport
// must deliver at least 3x the unbatched message rate. Both sides
// write v4 frames with the hand-written payload codec; batching wins by
// amortizing the frame header, the type-table section, the write lock
// and the syscall over many records. Measured 3.0–8.1x (median ~5x)
// on a loaded 2-CPU host, so this gate sits close to its bar.
func TestTransportBatchSpeedup(t *testing.T) {
	unbatched := bestSmallFrameRate(t, false, smallFramePayload)
	batched := bestSmallFrameRate(t, true, smallFramePayload)
	ratio := batched / unbatched
	t.Logf("small frames: unbatched %.0f msg/s, batched %.0f msg/s (%.1fx)",
		unbatched, batched, ratio)
	if ratio < 3 {
		t.Errorf("batching speedup %.2fx < 3x (unbatched %.0f msg/s, batched %.0f msg/s)",
			ratio, unbatched, batched)
	}
}

// TestCodecSpeedup is the zero-copy wire codec's acceptance gate,
// asserted by `make bench-smoke`: on the batched small-control-frame
// microbenchmark over a real local TCP mesh, a payload with a
// hand-written codec (raw little-endian after the type-table
// handshake) must deliver at least 3x the message rate of the same
// shape registered only with gob, which rides the typeRef-0 fallback
// with a fresh gob encoder per message.
func TestCodecSpeedup(t *testing.T) {
	gobRate := bestSmallFrameRate(t, true, func(seq int) any {
		return gobOnlyPayload{Seq: int32(seq), Arg: int32(seq * 3)}
	})
	codecRate := bestSmallFrameRate(t, true, smallFramePayload)
	ratio := codecRate / gobRate
	t.Logf("batched small frames: gob fallback %.0f msg/s, codec %.0f msg/s (%.1fx)",
		gobRate, codecRate, ratio)
	if ratio < 3 {
		t.Errorf("codec speedup %.2fx < 3x (gob fallback %.0f msg/s, codec %.0f msg/s)",
			ratio, gobRate, codecRate)
	}
}

// TestOneSidedBandwidth is the one-sided lane's acceptance gate,
// asserted by `make bench-smoke`: a 1 MiB AsyncCopyPut on a 2-place
// chan runtime must move bytes at ≥50% of this machine's memcpy
// bandwidth. The op's data lands directly in the target fragment's raw
// window — one copy, like memcpy — so the margin is the whole v5
// dispatch and finish-credit overhead, amortized over 1 MiB.
func TestOneSidedBandwidth(t *testing.T) {
	if raceEnabled {
		t.Skip("bandwidth-vs-memcpy ratio is skewed by race instrumentation " +
			"(the runtime path pays per-access checks the memcpy loop mostly doesn't)")
	}
	memcpy := memcpyBandwidth(3)
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		rate, err := runOneSidedPut(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		if rate > best {
			best = rate
		}
	}
	frac := best / memcpy
	t.Logf("one-sided 1MiB put: %.0f MB/s, memcpy %.0f MB/s (%.0f%%)",
		best/(1<<20), memcpy/(1<<20), frac*100)
	if frac < 0.5 {
		t.Errorf("one-sided put bandwidth %.0f MB/s is %.0f%% of memcpy (%.0f MB/s), want ≥50%%",
			best/(1<<20), frac*100, memcpy/(1<<20))
	}
}

// TestTransportSeriesShapes smoke-runs each transport series at tiny
// scale and checks the sweep shape: points from 2 places up, nonzero
// rates, batches counted only on the batching series.
func TestTransportSeriesShapes(t *testing.T) {
	small, err := TransportSmallSeries(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := TransportSmallBatchSeries(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	large, err := TransportLargeBatchSeries(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	onesided, err := OneSidedSeries(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Series{small, batched, large, onesided} {
		if len(s.Points) == 0 {
			t.Fatalf("%s: no points", s.Name)
		}
		for _, p := range s.Points {
			if p.Places < 2 {
				t.Errorf("%s: point at %d places; wire series start at 2", s.Name, p.Places)
			}
			if p.Aggregate <= 0 {
				t.Errorf("%s places=%d: nonpositive rate %g", s.Name, p.Places, p.Aggregate)
			}
		}
	}
}
