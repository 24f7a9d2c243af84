package harness

import (
	"testing"
	"time"

	"apgas/internal/core"
	"apgas/internal/x10rt"
)

// TestWireLedgerDisabledOverhead is the wire-observatory acceptance
// gate, asserted by `make bench-smoke`: with no ledger attached, the
// cost-attribution hooks on the message hot paths must cost less than
// 2% of the cheapest message. Like the tracing gate above it, raw
// before/after timing of whole benchmarks is too noisy for CI, so the
// budget is enforced two ways that stay stable on a loaded machine:
//
//  1. The disabled fast paths allocate nothing. Every transport calls
//     the record methods on a possibly-nil *WireLedger; the nil
//     receiver must return before touching timers or maps
//     (testing.AllocsPerRun is exact, not a timing measurement).
//  2. The per-message hook cost — the RecordSend + RecordRecv pair a
//     chan-transport message pays, measured directly on the nil
//     receiver — must be under 2% of the measured cost of the cheapest
//     message, a FINISH_ASYNC remote spawn plus its completion credit.
//     The measured ratio is far below 0.1% (two nil checks against a
//     multi-microsecond message), so the 2% gate holds with wide
//     margin.
func TestWireLedgerDisabledOverhead(t *testing.T) {
	// (1) Allocation-free disabled paths, covering every record method a
	// transport hot path calls.
	var nilLg *x10rt.WireLedger
	checks := []struct {
		name string
		fn   func()
	}{
		{"nil RecordSend", func() { nilLg.RecordSend(0, 1, x10rt.UserHandlerBase, 64) }},
		{"nil RecordEncode", func() { nilLg.RecordEncode(0, x10rt.UserHandlerBase, 500) }},
		{"nil RecordRecv", func() { nilLg.RecordRecv(1, x10rt.UserHandlerBase, 400) }},
		{"nil RecordBatchBody", func() { nilLg.RecordBatchBody(0, 1, 256, 128) }},
		{"nil RecordQueueWait", func() { nilLg.RecordQueueWait(0, 1, 1000) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(1000, c.fn); n != 0 {
			t.Errorf("%s allocates %.1f objects/op on the disabled fast path, want 0", c.name, n)
		}
	}

	// (2) Hook cost vs message cost. A chan-transport message pays one
	// RecordSend at the sender plus one RecordRecv at delivery.
	const hookIters = 1_000_000
	start := time.Now()
	for i := 0; i < hookIters; i++ {
		nilLg.RecordSend(0, 1, x10rt.UserHandlerBase, 64)
		nilLg.RecordRecv(1, x10rt.UserHandlerBase, 0)
	}
	hookNs := float64(time.Since(start).Nanoseconds()) / hookIters

	// The reference runtime runs with the ledger disabled — the exact
	// configuration whose overhead the gate bounds.
	rt, err := core.NewRuntime(core.Config{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const finishes = 3000 // 2 messages each: spawn + completion credit
	var msgNs float64
	err = rt.Run(func(ctx *core.Ctx) {
		t0 := time.Now()
		for i := 0; i < finishes; i++ {
			if ferr := ctx.FinishPragma(core.PatternAsync, func(c *core.Ctx) {
				c.AtAsync(1, func(*core.Ctx) {})
			}); ferr != nil {
				t.Error(ferr)
				return
			}
		}
		msgNs = float64(time.Since(t0).Nanoseconds()) / (2 * finishes)
	})
	if err != nil {
		t.Fatal(err)
	}

	ratio := hookNs / msgNs
	t.Logf("disabled hook pair %.1f ns, FINISH_ASYNC message %.0f ns: overhead %.3f%%",
		hookNs, msgNs, 100*ratio)
	if ratio >= 0.02 {
		t.Errorf("disabled-ledger hook overhead %.2f%% of message cost, want < 2%%", 100*ratio)
	}
}
