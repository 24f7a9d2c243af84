package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("get-or-create returned a different counter handle")
	}

	g := r.Gauge("a.level")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge after Set = %d, want -7", got)
	}

	h := r.Histogram("a.us")
	for _, v := range []uint64{0, 1, 2, 3, 1000, 1 << 62} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("histogram count = %d, want 6", h.Count())
	}
	if h.Sum() != 0+1+2+3+1000+1<<62 {
		t.Fatalf("histogram sum = %d", h.Sum())
	}

	snap := r.Snapshot()
	if snap.Counter("a.count") != 5 || snap.Gauge("a.level") != -7 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	hv := snap["a.us"]
	if hv.Kind != KindHistogram || hv.Count != 6 {
		t.Fatalf("histogram snapshot = %+v", hv)
	}
	if hv.Buckets[0] != 1 { // the single zero observation
		t.Fatalf("bucket 0 = %d, want 1", hv.Buckets[0])
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(2)
	g.Add(1)
	g.Set(9)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metric handles must read as zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}

	var tr *Tracer
	if tr.Now() != 0 || tr.NextID() != 0 {
		t.Fatal("nil tracer must report zero time and ids")
	}
	tr.Complete("a", "b", 0, 0, 0)
	tr.Instant("a", "b", 0)
	if tr.Events() != nil {
		t.Fatal("nil tracer must have no events")
	}
}

func TestSnapshotSubAndText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs")
	h := r.Histogram("lat")
	c.Add(10)
	h.Observe(5)
	before := r.Snapshot()
	c.Add(7)
	h.Observe(9)
	delta := r.Snapshot().Sub(before)
	if delta.Counter("msgs") != 7 {
		t.Fatalf("delta counter = %d, want 7", delta.Counter("msgs"))
	}
	if d := delta["lat"]; d.Count != 1 || d.Sum != 9 {
		t.Fatalf("delta histogram = %+v", d)
	}

	// A counter that shrank (re-registered by a fresh runtime) saturates
	// at zero instead of wrapping around.
	shrunk := Snapshot{"msgs": {Kind: KindCounter, Count: 3}}.Sub(before)
	if shrunk.Counter("msgs") != 0 {
		t.Fatalf("saturating sub = %d, want 0", shrunk.Counter("msgs"))
	}

	var sb strings.Builder
	r.Snapshot().WriteText(&sb)
	text := sb.String()
	for _, want := range []string{"msgs", "lat", "count=2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, text)
		}
	}
}

func TestRegisterAdoptsExternalCounter(t *testing.T) {
	r := NewRegistry()
	var own Counter
	own.Add(42)
	r.RegisterCounter("ext.count", &own)
	if got := r.Snapshot().Counter("ext.count"); got != 42 {
		t.Fatalf("adopted counter = %d, want 42", got)
	}
	// Re-registration replaces (fresh runtime supersedes a closed one).
	var next Counter
	next.Add(1)
	r.RegisterCounter("ext.count", &next)
	if got := r.Snapshot().Counter("ext.count"); got != 1 {
		t.Fatalf("re-registered counter = %d, want 1", got)
	}

	// A read-through counter is read at every snapshot and replaces the
	// adopted counter under its name, and vice versa.
	src := uint64(7)
	r.RegisterCounterFunc("ext.count", func() uint64 { return src })
	src = 9
	if got := r.Snapshot().Counter("ext.count"); got != 9 {
		t.Fatalf("read-through counter = %d, want 9", got)
	}
	r.RegisterCounter("ext.count", &next)
	if got := r.Snapshot().Counter("ext.count"); got != 1 {
		t.Fatalf("counter re-adopted over a read-through = %d, want 1", got)
	}

	var lvl Gauge
	lvl.Set(5)
	r.RegisterGauge("ext.level", &lvl)
	if got := r.Snapshot().Gauge("ext.level"); got != 5 {
		t.Fatalf("adopted gauge = %d, want 5", got)
	}
}

// TestConcurrentHammer drives one counter, one gauge, and one histogram
// from 64 goroutines; run under -race (the repo's `make race` / `make
// all` gate) it proves the registry's hot paths are race-free, and the
// final totals prove no update is lost.
func TestConcurrentHammer(t *testing.T) {
	const goroutines = 64
	const perG = 1000
	r := NewRegistry()
	c := r.Counter("hammer.count")
	g := r.Gauge("hammer.level")
	h := r.Histogram("hammer.hist")

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(seed + uint64(j))
				// Concurrent get-or-create of the same names must also
				// be safe and return the shared handles.
				if r.Counter("hammer.count") != c {
					panic("handle identity lost")
				}
			}
		}(uint64(i))
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var total uint64
	for _, b := range r.Snapshot()["hammer.hist"].Buckets {
		total += b
	}
	if total != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", total, goroutines*perG)
	}
}
