package harness

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"apgas/internal/collectives"
)

func TestAllFig1PanelsTiny(t *testing.T) {
	type gen func(Scale) (Series, error)
	for _, g := range []struct {
		name string
		fn   gen
	}{
		{"hpl", Fig1HPL},
		{"fft", Fig1FFT},
		{"ra", Fig1RandomAccess},
		{"stream", Fig1Stream},
		{"uts", Fig1UTS},
		{"kmeans", Fig1KMeans},
		{"sw", Fig1SW},
		{"bc", Fig1BC},
	} {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			s, err := g.fn(Tiny)
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			if len(s.Points) == 0 {
				t.Fatalf("%s: no points", g.name)
			}
			for _, p := range s.Points {
				if p.Aggregate <= 0 || p.PerUnit <= 0 {
					t.Errorf("%s places=%d: non-positive metrics %+v", g.name, p.Places, p)
				}
			}
			var buf bytes.Buffer
			s.Print(&buf)
			if !strings.Contains(buf.String(), s.Name) {
				t.Errorf("%s: Print missing name", g.name)
			}
		})
	}
}

func TestTablesTiny(t *testing.T) {
	t1, err := Table1(Tiny)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(t1.Rows) != 4 {
		t.Fatalf("Table1 has %d rows", len(t1.Rows))
	}
	t2, err := Table2(Tiny)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(t2.Rows) != 8 {
		t.Fatalf("Table2 has %d rows", len(t2.Rows))
	}
	var buf bytes.Buffer
	t1.Print(&buf)
	t2.Print(&buf)
	if !strings.Contains(buf.String(), "Global HPL") {
		t.Error("tables missing HPL row")
	}
}

func TestModelTable(t *testing.T) {
	mt := ModelTable()
	if len(mt.Rows) == 0 {
		t.Fatal("empty model table")
	}
	var buf bytes.Buffer
	mt.Print(&buf)
	if !strings.Contains(buf.String(), "1740 hosts") {
		t.Error("model table missing full-machine row")
	}
}

func TestFinishAblationShapes(t *testing.T) {
	for _, shape := range []string{"spmd", "round", "dense"} {
		rows, err := FinishAblation(shape, 4, 3)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: %d rows", shape, len(rows))
		}
	}
	if _, err := FinishAblation("bogus", 4, 1); err == nil {
		t.Error("bogus shape accepted")
	}
}

// TestFinishAblationSpecializedUseFewerMessages asserts the §3.1 claim at
// this scale: the specialized patterns use no more control messages than
// the general algorithm, and FINISH_HERE's round trips use none at all.
func TestFinishAblationSpecializedUseFewerMessages(t *testing.T) {
	rows, err := FinishAblation("round", 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FinishAblationRow{}
	for _, r := range rows {
		byName[r.Pattern] = r
	}
	if byName["FINISH_HERE"].CtlMessages != 0 {
		t.Errorf("FINISH_HERE used %d control messages, want 0", byName["FINISH_HERE"].CtlMessages)
	}
	if byName["FINISH_HERE"].CtlMessages > byName["FINISH_DEFAULT"].CtlMessages {
		t.Error("FINISH_HERE used more control traffic than the default")
	}
	srows, err := FinishAblation("spmd", 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	byName = map[string]FinishAblationRow{}
	for _, r := range srows {
		byName[r.Pattern] = r
	}
	if byName["FINISH_SPMD"].CtlMessages > byName["FINISH_DEFAULT"].CtlMessages {
		t.Errorf("FINISH_SPMD msgs %d > default %d",
			byName["FINISH_SPMD"].CtlMessages, byName["FINISH_DEFAULT"].CtlMessages)
	}
}

// TestFinishAblationFanIn pins the traffic-shape columns at 4 places:
// every spmd and round pattern but FINISH_HERE hears control traffic at
// the home from all three other places, and FINISH_HERE sends none.
func TestFinishAblationFanIn(t *testing.T) {
	for _, shape := range []string{"spmd", "round"} {
		rows, err := FinishAblation(shape, 4, 20)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		for _, r := range rows {
			want := 3
			if r.Pattern == "FINISH_HERE" {
				want = 0
			}
			if r.HomeFanIn != want || r.MaxInDegree != want {
				t.Errorf("%s/%s: home fan-in %d, max fan-in %d; want %d/%d",
					shape, r.Pattern, r.HomeFanIn, r.MaxInDegree, want, want)
			}
		}
	}
}

func TestFinishAblationTable(t *testing.T) {
	tab, err := FinishAblationTable(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 { // 2 + 3 + 2
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
}

func TestBroadcastAblation(t *testing.T) {
	tab, err := BroadcastAblation(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestUTSAblation(t *testing.T) {
	tab, err := UTSAblation(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTeamModeSeries(t *testing.T) {
	for _, mode := range []collectives.Mode{collectives.ModeNative, collectives.ModeEmulated} {
		s, err := TeamModeSeries(Tiny, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(s.Points) == 0 {
			t.Fatalf("%v: no points", mode)
		}
	}
}

func TestSequentialReference(t *testing.T) {
	tab := SequentialReference()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestSeriesEfficiency(t *testing.T) {
	ideal := func(p int) float64 {
		c := runtime.GOMAXPROCS(0)
		if p < c {
			return float64(p)
		}
		return float64(c)
	}
	s := Series{Points: []Point{
		{Places: 1, Aggregate: 10},
		{Places: 4, Aggregate: 36},
		{Places: 16, Aggregate: 128},
	}}
	want := (128.0 / 10.0) / (ideal(16) / ideal(1))
	if e := s.Efficiency(1); math.Abs(e-want) > 1e-12 {
		t.Errorf("Efficiency(1) = %v, want %v", e, want)
	}
	want4 := (128.0 / 36.0) / (ideal(16) / ideal(4))
	if e := s.Efficiency(4); math.Abs(e-want4) > 1e-12 {
		t.Errorf("Efficiency(4) = %v, want %v", e, want4)
	}
	if (Series{}).Efficiency(1) != 0 {
		t.Error("empty series efficiency")
	}

	// Time-based series: rate = places/seconds.
	ts := Series{TimeBased: true, Points: []Point{
		{Places: 1, Aggregate: 2.0},  // rate 0.5
		{Places: 8, Aggregate: 20.0}, // rate 0.4
	}}
	wantT := (0.4 / 0.5) / (ideal(8) / ideal(1))
	if e := ts.Efficiency(1); math.Abs(e-wantT) > 1e-12 {
		t.Errorf("time-based Efficiency = %v, want %v", e, wantT)
	}
}

func TestScaleSweeps(t *testing.T) {
	if len(Tiny.PlaceSweep()) >= len(Small.PlaceSweep()) {
		t.Error("Tiny sweep not smaller than Small")
	}
	if len(Small.PlaceSweep()) >= len(Medium.PlaceSweep()) {
		t.Error("Small sweep not smaller than Medium")
	}
}
