package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"apgas/internal/core"
	"apgas/internal/obs"
	"apgas/internal/x10rt"
)

const collectTimeout = 10 * time.Second

// newPlane builds a runtime with an attached telemetry plane.
func newPlane(t *testing.T, places int, mod func(*core.Config)) (*core.Runtime, *Plane) {
	t.Helper()
	cfg := core.Config{Places: places, Obs: obs.New()}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	p, err := Attach(rt)
	if err != nil {
		t.Fatal(err)
	}
	return rt, p
}

// TestCollectSumEquality is the acceptance check of the telemetry plane:
// after a 4-place workload, the aggregated x10rt message totals from the
// gather tree equal the sum of the four per-place transport Stats, which
// in turn equals the transport's global Stats — telemetry's own traffic
// is invisible to all three.
func TestCollectSumEquality(t *testing.T) {
	const places = 4
	rt, p := newPlane(t, places, nil)
	err := rt.Run(func(c *core.Ctx) {
		for q := 1; q < c.NumPlaces(); q++ {
			c.AtAsyncSized(core.Place(q), 64*q, func(cc *core.Ctx) {
				cc.Async(func(*core.Ctx) {})
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drain in-flight finish cleanup so the per-place snapshots, the
	// per-place transport stats, and the global stats all describe the
	// same quiescent instant.
	tr := rt.Transport().(*x10rt.ChanTransport)
	tr.Quiesce()

	rep, err := p.Report(collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Places != places || len(rep.ByPlace) != places {
		t.Fatalf("report covers %d/%d places, want %d", len(rep.ByPlace), rep.Places, places)
	}

	total := tr.Stats()
	var sum x10rt.Stats
	for q := 0; q < places; q++ {
		sum = sum.Add(tr.PlaceStats(q))
	}
	if sum != total {
		t.Fatalf("sum of per-place stats %v != transport stats %v", sum, total)
	}

	// The merged cross-place counters agree with the transport exactly.
	checks := []struct {
		name string
		want uint64
	}{
		{"x10rt.msgs.data", total.Messages[x10rt.DataClass]},
		{"x10rt.msgs.control", total.Messages[x10rt.ControlClass]},
		{"x10rt.bytes.data", total.Bytes[x10rt.DataClass]},
		{"x10rt.bytes.control", total.Bytes[x10rt.ControlClass]},
		{"x10rt.bytes.wire", total.WireBytes},
	}
	for _, c := range checks {
		if got := rep.Merged.Counter(c.name); got != c.want {
			t.Errorf("merged %s = %d, want %d (transport)", c.name, got, c.want)
		}
	}
	if total.Messages[x10rt.DataClass] == 0 || total.Messages[x10rt.ControlClass] == 0 {
		t.Fatalf("degenerate workload, stats %v", total)
	}

	// Per-place attribution in the merged view matches PlaceStats.
	mv, ok := rep.Merged["x10rt.msgs.data"]
	if !ok {
		t.Fatal("merged view has no x10rt.msgs.data")
	}
	for i, q := range mv.Places {
		want := tr.PlaceStats(q).Messages[x10rt.DataClass]
		if uint64(mv.PerPlace[i]) != want {
			t.Errorf("place %d data msgs = %d, want %d", q, mv.PerPlace[i], want)
		}
	}

	// Every place contributed scheduler activity under the shared name.
	if mv, ok := rep.Merged["sched.spawned"]; !ok || len(mv.Places) != places {
		t.Errorf("sched.spawned merged over %+v, want all %d places", mv.Places, places)
	}

	var table bytes.Buffer
	rep.WriteTable(&table)
	if !strings.Contains(table.String(), "telemetry: 4 places") {
		t.Errorf("table missing header:\n%s", table.String())
	}
	if !strings.Contains(table.String(), "x10rt.msgs.data") {
		t.Errorf("table missing transport counters:\n%s", table.String())
	}
}

// TestCollectRepeatedAndConcurrent exercises round bookkeeping: rounds
// must not cross-talk, and counters only grow between rounds.
func TestCollectRepeatedAndConcurrent(t *testing.T) {
	rt, p := newPlane(t, 3, nil)
	if err := rt.Run(func(c *core.Ctx) {
		c.AtAsync(1, func(*core.Ctx) {})
	}); err != nil {
		t.Fatal(err)
	}
	first, err := p.Collect(collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]map[int]obs.Snapshot, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps, err := p.Collect(collectTimeout)
			if err != nil {
				t.Errorf("concurrent collect %d: %v", i, err)
				return
			}
			results[i] = snaps
		}(i)
	}
	wg.Wait()
	for i, snaps := range results {
		if snaps == nil {
			continue
		}
		if len(snaps) != 3 {
			t.Fatalf("round %d covered %d places", i, len(snaps))
		}
		for q, s := range snaps {
			if s.Counter("sched.spawned") < first[q].Counter("sched.spawned") {
				t.Errorf("round %d place %d went backwards", i, q)
			}
		}
	}
}

// TestHandlerJSON drives the /telemetry HTTP endpoint.
func TestHandlerJSON(t *testing.T) {
	SetCurrent(nil)
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/telemetry", nil))
	if rec.Code != 503 {
		t.Fatalf("no plane: status %d, want 503", rec.Code)
	}

	rt, p := newPlane(t, 2, nil)
	if err := rt.Run(func(c *core.Ctx) {
		c.AtAsync(1, func(*core.Ctx) {})
	}); err != nil {
		t.Fatal(err)
	}
	SetCurrent(p)
	defer SetCurrent(nil)
	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/telemetry", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Places  int `json:"places"`
		Metrics map[string]struct {
			Kind     string           `json:"kind"`
			Sum      int64            `json:"sum"`
			PerPlace map[string]int64 `json:"perPlace"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Places != 2 {
		t.Errorf("places = %d, want 2", doc.Places)
	}
	m, ok := doc.Metrics["sched.spawned"]
	if !ok || m.Sum == 0 {
		t.Fatalf("metrics missing sched.spawned: %+v", doc.Metrics)
	}
	if m.Kind != "counter" || len(m.PerPlace) == 0 {
		t.Errorf("sched.spawned = %+v, want counter with perPlace", m)
	}
}
