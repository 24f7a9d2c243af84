package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"apgas/internal/obs"
)

// declared reads the metric declarations of BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func units(ms map[string]metric) map[string]string {
	out := map[string]string{}
	for n, m := range ms {
		out[n] = m.Unit
	}
	return out
}

func keys(m map[string]string) []string {
	var k []string
	for n := range m {
		k = append(k, n)
	}
	sort.Strings(k)
	return k
}

// TestMetricsDeclared checks that the command prints exactly the metrics
// BENCHMARK.json declares, with the declared units, whatever it measured.
func TestMetricsDeclared(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		m := &measurement{workload: name}
		if got := units(m.endToEnd()); !reflect.DeepEqual(got, endToEnd) {
			t.Errorf("%s: end-to-end metrics %v, declared %v", name, keys(got), keys(endToEnd))
		}
		if got := units(m.perLayer()); !reflect.DeepEqual(got, perLayer) {
			t.Errorf("%s: per-layer metrics %v, declared %v", name, keys(got), keys(perLayer))
		}
	}
}

// exactCounts are the counts a traced repetition must repeat exactly.
type exactCounts struct {
	OneSidedPerPass  uint64
	DataBytesPerPass uint64
	Messages         [3]uint64
	Delivered        uint64
}

// tracedCounts runs the workload traced for the shortest time (a warm-up,
// one untraced and one traced repetition) and returns the exact counts
// of every traced repetition.
func tracedCounts(t *testing.T, name string, seed int64) []exactCounts {
	t.Helper()
	m, err := measure(name, seed, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 || len(m.traced) == 0 {
		t.Fatalf("%s: %d of %d repetitions failed (%v), %d traced", name, m.failed, m.attempted, m.errs, len(m.traced))
	}
	var out []exactCounts
	for _, s := range m.traced {
		l := s.layers
		c := exactCounts{Delivered: l.delivered}
		switch name {
		case "ra": // a repetition is the timed pass plus the verification pass
			c.OneSidedPerPass = l.oneSided / 2
			c.DataBytesPerPass = l.stats.Bytes[0] / 2
		case "fft":
			c.Messages = l.stats.Messages
		}
		out = append(out, c)
	}
	return out
}

// TestTracedCountsRepeat checks that two traced runs with one seed give
// identical exact counts: RandomAccess's one-sided operations and data
// bytes per pass, the FFT's messages by class, and the messages the wire
// workload delivered. Timings are not asserted.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs full-size repetitions, and baseline.GUPS races by design")
	}
	for _, name := range []string{"ra", "fft", "wire"} {
		first := tracedCounts(t, name, 7)
		second := tracedCounts(t, name, 7)
		all := append(first, second...)
		for _, c := range all[1:] {
			if c != all[0] {
				t.Errorf("%s: traced counts differ: %+v vs %+v", name, c, all[0])
			}
		}
		if all[0] == (exactCounts{}) {
			t.Errorf("%s: every exact count is zero", name)
		}
	}
}

// TestWireLadder runs the wire workload's reduced shape traced, twice,
// so its concurrent handlers run under the race detector too, and checks
// that the ledger saw every message sent and received.
func TestWireLadder(t *testing.T) {
	w, err := newWireSized(3, wireLadder)
	if err != nil {
		t.Fatal(err)
	}
	var first uint64
	for i := 0; i < 2; i++ {
		s, err := w.rep(obs.New(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		l := s.layers
		if l.sent != l.recv || l.sent != l.delivered {
			t.Errorf("ledger sent %d, received %d; handlers saw %d", l.sent, l.recv, l.delivered)
		}
		if i == 0 {
			first = l.delivered
		} else if l.delivered != first {
			t.Errorf("delivered %d, then %d", first, l.delivered)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(v, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
}
