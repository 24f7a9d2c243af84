// Command perfbench is the APGAS runtime's benchmark. It runs one named
// workload closed-loop for a fixed time, verifies every repetition, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	perfbench --workload ra --seed 1 --seconds 20 --trace 0
//
// Everything runs in one process: 2 places, GOMAXPROCS 2, one worker per
// place. The workloads call the runtime's public entry points and read
// the counters the layers export; nothing inside the runtime is changed
// for measurement. BENCHMARK.json at the repository root declares the
// metrics and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// places is the number of APGAS places (and wire endpoints). The
// benchmark is sized for a 2-CPU box and pins GOMAXPROCS to match.
const places = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass, prints the per-layer metrics and writes the spans to .bench_build/")
	flag.Parse()

	runtime.GOMAXPROCS(places)
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	m, err := measure(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printSummary(m)
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
	}
	if *trace == 1 {
		res.Metrics = m.perLayer()
		out := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := m.spans.writeFile(out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		res.Metrics = m.endToEnd()
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if m.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
