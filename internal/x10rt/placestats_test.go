package x10rt

import (
	"sync"
	"testing"

	"apgas/internal/obs"
)

// TestPlaceStatsSumToStats asserts the PlaceMetricSource contract: the
// per-place egress snapshots sum exactly to the global Stats, because
// every message is attributed to its sender and telemetry traffic is
// counted nowhere.
func TestPlaceStatsSumToStats(t *testing.T) {
	const places = 4
	tr, err := NewChanTransport(ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var mu sync.Mutex
	got := 0
	h := func(src, dst int, payload any) { mu.Lock(); got++; mu.Unlock() }
	if err := tr.Register(UserHandlerBase, h); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(HandlerTelemetry, h); err != nil {
		t.Fatal(err)
	}

	sent := 0
	for src := 0; src < places; src++ {
		for dst := 0; dst < places; dst++ {
			for k := 0; k <= src; k++ { // deliberately imbalanced egress
				cls := Class(k % 3)
				if err := tr.Send(src, dst, UserHandlerBase, nil, 10+src, cls); err != nil {
					t.Fatal(err)
				}
				sent++
			}
			// Telemetry traffic must not show up anywhere.
			if err := tr.Send(src, dst, HandlerTelemetry, nil, 999, ControlClass); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	tr.Quiesce()
	mu.Lock()
	if got != sent {
		t.Fatalf("handlers ran %d times, want %d", got, sent)
	}
	mu.Unlock()

	var sum Stats
	for p := 0; p < places; p++ {
		ps := tr.PlaceStats(p)
		if ps.TotalMessages() == 0 {
			t.Errorf("place %d egress is zero; attribution broken", p)
		}
		sum = sum.Add(ps)
	}
	if global := tr.Stats(); sum != global {
		t.Errorf("sum of PlaceStats %+v != Stats %+v", sum, global)
	}
	// Wire-byte parity, spelled out on its own: the wire observatory's
	// per-link rows read the same link table, so Σ per-place WireBytes must equal the global wire
	// counter exactly — and must be nonzero for nonzero traffic.
	if sum.WireBytes != tr.Stats().WireBytes {
		t.Errorf("wire-byte parity: Σ per-place WireBytes = %d, Stats().WireBytes = %d",
			sum.WireBytes, tr.Stats().WireBytes)
	}
	if sum.WireBytes == 0 {
		t.Error("no wire bytes attributed for nonzero traffic")
	}
	// p1 sent 2 messages per destination vs p0's 1: imbalance visible.
	if p0, p1 := tr.PlaceStats(0).TotalMessages(), tr.PlaceStats(1).TotalMessages(); p1 != 2*p0 {
		t.Errorf("egress imbalance lost: p0=%d p1=%d", p0, p1)
	}
	if tr.PlaceStats(-1) != (Stats{}) || tr.PlaceStats(places) != (Stats{}) {
		t.Error("out-of-range PlaceStats must be zero")
	}
}

// TestTelemetryExcludedFromStats pins the exclusion rule the telemetry
// plane depends on: sending on HandlerTelemetry moves no counters, so
// collecting metrics does not perturb them.
func TestTelemetryExcludedFromStats(t *testing.T) {
	tr, err := NewChanTransport(ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Register(HandlerTelemetry, func(src, dst int, payload any) {})
	before := tr.Stats()
	for i := 0; i < 10; i++ {
		if err := tr.Send(0, 1, HandlerTelemetry, nil, 100, ControlClass); err != nil {
			t.Fatal(err)
		}
	}
	tr.Quiesce()
	if d := tr.Stats().Sub(before); d.TotalMessages() != 0 || d.TotalBytes() != 0 {
		t.Errorf("telemetry traffic leaked into Stats: %+v", d)
	}
	if ps := tr.PlaceStats(0); ps.TotalMessages() != 0 {
		t.Errorf("telemetry traffic leaked into PlaceStats: %+v", ps)
	}
}

// TestAttachPlaceMetrics checks the per-place registry view stays live.
func TestAttachPlaceMetrics(t *testing.T) {
	tr, err := NewChanTransport(ChanOptions{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Register(UserHandlerBase, func(src, dst int, payload any) {})
	o := obs.New()
	for p := 0; p < 2; p++ {
		tr.AttachPlaceMetrics(p, o.Place(p))
	}
	tr.Send(1, 0, UserHandlerBase, nil, 42, DataClass)
	tr.Quiesce()
	s1 := o.Place(1).Snapshot()
	if s1.Counter("x10rt.msgs.data") != 1 || s1.Counter("x10rt.bytes.data") != 42 {
		t.Errorf("place 1 registry = %v", s1)
	}
	if o.Place(0).Snapshot().Counter("x10rt.msgs.data") != 0 {
		t.Error("receiver must not be charged for sender's egress")
	}
}
