package harness

import (
	"fmt"
	"time"

	"apgas/internal/apps/uts"
	"apgas/internal/collectives"
	"apgas/internal/core"
	"apgas/internal/glb"
	"apgas/internal/kernels/sha1rng"
	"apgas/internal/x10rt"
)

// This file holds the ablation experiments for the design choices the
// paper calls out: the specialized finish implementations of §3.1, the
// scalable broadcast of §3.2, collectives modes of §3.3, and the UTS
// load-balancer refinements of §6.1.

// FinishAblation measures, for one workload shape, the wall time and
// control-message traffic of the applicable finish patterns. The three
// shapes mirror §3.1's catalogue:
//
//	"spmd"  — one remote activity per place (FINISH_SPMD's home turf)
//	"round" — request/response round trips (FINISH_HERE vs FINISH_ASYNC)
//	"dense" — an all-to-all spawn storm (FINISH_DENSE's home turf)
type FinishAblationRow struct {
	Pattern     string
	Seconds     float64
	CtlMessages uint64
	CtlBytes    uint64
	// HomeFanIn is the number of distinct places that sent control
	// traffic directly to the finish home — the "flooded network
	// interface" §3.1 warns about; FINISH_DENSE's software routing
	// exists to keep it low.
	HomeFanIn int
	// MaxInDegree is the largest control fan-in at any single place.
	MaxInDegree int
}

// FinishAblation runs the named workload under each candidate pattern.
func FinishAblation(shape string, places, reps int) ([]FinishAblationRow, error) {
	type cand struct {
		name string
		pat  core.Pattern
	}
	var candidates []cand
	switch shape {
	case "spmd":
		candidates = []cand{
			{"FINISH_DEFAULT", core.PatternDefault},
			{"FINISH_SPMD", core.PatternSPMD},
		}
	case "round":
		candidates = []cand{
			{"FINISH_DEFAULT", core.PatternDefault},
			{"FINISH_ASYNC", core.PatternAsync},
			{"FINISH_HERE", core.PatternHere},
		}
	case "dense":
		candidates = []cand{
			{"FINISH_DEFAULT", core.PatternDefault},
			{"FINISH_DENSE", core.PatternDense},
		}
	default:
		return nil, fmt.Errorf("harness: unknown finish shape %q", shape)
	}

	var rows []FinishAblationRow
	for _, c := range candidates {
		rt, err := core.NewRuntime(core.Config{Places: places, PlacesPerHost: 8})
		if err != nil {
			return nil, err
		}
		before := rt.Transport().Stats()
		start := time.Now()
		err = rt.Run(func(ctx *core.Ctx) {
			for rep := 0; rep < reps; rep++ {
				var ferr error
				switch shape {
				case "spmd":
					ferr = ctx.FinishPragma(c.pat, func(cc *core.Ctx) {
						for _, p := range cc.Places() {
							cc.AtAsync(p, func(*core.Ctx) {})
						}
					})
				case "round":
					home := ctx.Place()
					target := core.Place(rep%(places-1) + 1)
					ferr = ctx.FinishPragma(c.pat, func(cc *core.Ctx) {
						cc.AtAsync(target, func(cr *core.Ctx) {
							if c.pat == core.PatternHere || c.pat == core.PatternDefault {
								cr.AtAsync(home, func(*core.Ctx) {})
							}
						})
					})
				case "dense":
					ferr = ctx.FinishPragma(c.pat, func(cc *core.Ctx) {
						for _, p := range cc.Places() {
							cc.AtAsync(p, func(cp *core.Ctx) {
								for _, q := range cp.Places() {
									cp.AtAsync(q, func(*core.Ctx) {})
								}
							})
						}
					})
				}
				if ferr != nil {
					panic(ferr)
				}
			}
		})
		seconds := time.Since(start).Seconds()
		delta := rt.Transport().Stats().Sub(before)
		links := rt.Transport().Links()
		rt.Close()
		if err != nil {
			return nil, err
		}
		fanIn, _ := links.FanIn(0, x10rt.ControlClass)
		rows = append(rows, FinishAblationRow{
			Pattern:     c.name,
			Seconds:     seconds,
			CtlMessages: delta.Messages[x10rt.ControlClass],
			CtlBytes:    delta.Bytes[x10rt.ControlClass],
			HomeFanIn:   fanIn,
			MaxInDegree: links.MaxInDegree(x10rt.ControlClass),
		})
	}
	return rows, nil
}

// FinishAblationTable formats the three shapes into one table.
func FinishAblationTable(places, reps int) (Table, error) {
	t := Table{
		Title:   fmt.Sprintf("Finish pattern ablation (%d places, %d reps)", places, reps),
		Columns: []string{"seconds", "ctl msgs", "ctl bytes", "home fan-in", "max fan-in"},
	}
	for _, shape := range []string{"spmd", "round", "dense"} {
		rows, err := FinishAblation(shape, places, reps)
		if err != nil {
			return t, err
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, Row{
				Name: fmt.Sprintf("%s/%s", shape, r.Pattern),
				Values: []string{
					fmt.Sprintf("%.4f", r.Seconds),
					fmt.Sprintf("%d", r.CtlMessages),
					fmt.Sprintf("%d", r.CtlBytes),
					fmt.Sprintf("%d", r.HomeFanIn),
					fmt.Sprintf("%d", r.MaxInDegree),
				},
			})
		}
	}
	return t, nil
}

// BroadcastAblation compares the §3.2 spawning-tree PlaceGroup broadcast
// against the naive sequential place loop.
func BroadcastAblation(places, reps int) (Table, error) {
	t := Table{
		Title:   fmt.Sprintf("Broadcast ablation (%d places, %d reps)", places, reps),
		Columns: []string{"seconds", "ctl msgs"},
	}
	for _, tree := range []bool{true, false} {
		rt, err := core.NewRuntime(core.Config{Places: places, PlacesPerHost: 8, BroadcastArity: 4})
		if err != nil {
			return t, err
		}
		g := core.WorldGroup(rt)
		before := rt.Transport().Stats()
		start := time.Now()
		err = rt.Run(func(ctx *core.Ctx) {
			for rep := 0; rep < reps; rep++ {
				var berr error
				if tree {
					berr = g.Broadcast(ctx, func(*core.Ctx) {})
				} else {
					berr = g.SequentialBroadcast(ctx, func(*core.Ctx) {})
				}
				if berr != nil {
					panic(berr)
				}
			}
		})
		seconds := time.Since(start).Seconds()
		delta := rt.Transport().Stats().Sub(before)
		rt.Close()
		if err != nil {
			return t, err
		}
		name := "tree (nested FINISH_SPMD)"
		if !tree {
			name = "sequential loop"
		}
		t.Rows = append(t.Rows, Row{
			Name: name,
			Values: []string{
				fmt.Sprintf("%.4f", seconds),
				fmt.Sprintf("%d", delta.Messages[x10rt.ControlClass]),
			},
		})
	}
	return t, nil
}

// UTSAblation reproduces §6.2's comparison: the refined balancer (interval
// bags, fragment-of-every-interval stealing, bounded victim sets,
// FINISH_DENSE root) against the original PPoPP'11 configuration (expanded
// node lists, unbounded victims, default finish). The paper observed the
// original "slows to a crawl" beyond a few thousand cores; at this scale
// the visible signal is the control-traffic and steal-efficiency gap.
func UTSAblation(places, depth int) (Table, error) {
	tree := sha1rng.Geometric{B0: 4, Depth: depth, Seed: 19}
	want, _ := tree.CountSequential()
	t := Table{
		Title:   fmt.Sprintf("UTS balancer ablation (%d places, depth %d, %d nodes)", places, depth, want),
		Columns: []string{"Mnodes/s", "ctl msgs", "steals ok/try", "lifeline sends"},
	}
	type variant struct {
		name string
		cfg  uts.Config
	}
	variants := []variant{
		{"refined (intervals+bounded+dense)", uts.Config{
			Tree: tree,
			GLB:  glb.Config{DenseFinish: true},
		}},
		{"legacy [35] (lists+unbounded+default)", uts.Config{
			Tree:       tree,
			UseListBag: true,
			GLB:        glb.Config{MaxVictims: -1},
		}},
	}
	for _, v := range variants {
		rt, err := core.NewRuntime(core.Config{Places: places, PlacesPerHost: 8})
		if err != nil {
			return t, err
		}
		before := rt.Transport().Stats()
		res, err := uts.Run(rt, v.cfg)
		delta := rt.Transport().Stats().Sub(before)
		rt.Close()
		if err != nil {
			return t, err
		}
		if res.Nodes != want {
			return t, fmt.Errorf("uts ablation %q: %d nodes, want %d", v.name, res.Nodes, want)
		}
		t.Rows = append(t.Rows, Row{
			Name: v.name,
			Values: []string{
				fmt.Sprintf("%.3f", res.NodesPerSecond()/1e6),
				fmt.Sprintf("%d", delta.Messages[x10rt.ControlClass]),
				fmt.Sprintf("%d/%d", res.Stats.StealSuccesses, res.Stats.StealAttempts),
				fmt.Sprintf("%d", res.Stats.LifelineRequests),
			},
		})
	}
	return t, nil
}

// allReduceResult is the measurement of kmeansLikeAllReduce.
type allReduceResult struct {
	opsPerSec        float64
	mbPerSecPerPlace float64
}

// kmeansLikeAllReduce times repeated vector all-reduces (the K-Means
// communication pattern) under the given team mode.
func kmeansLikeAllReduce(rt *core.Runtime, mode collectives.Mode, words, reps int) (allReduceResult, error) {
	team := collectives.New(rt, core.WorldGroup(rt), mode)
	start := time.Now()
	err := rt.Run(func(ctx *core.Ctx) {
		ferr := ctx.FinishPragma(core.PatternSPMD, func(cs *core.Ctx) {
			for _, p := range cs.Places() {
				cs.AtAsync(p, func(cc *core.Ctx) {
					buf := make([]float64, words)
					for i := range buf {
						buf[i] = float64(cc.Place()) + float64(i)
					}
					for rep := 0; rep < reps; rep++ {
						collectives.AllReduce(team, cc, buf, func(a, b float64) float64 { return a + b })
					}
				})
			}
		})
		if ferr != nil {
			panic(ferr)
		}
	})
	seconds := time.Since(start).Seconds()
	if err != nil {
		return allReduceResult{}, err
	}
	ops := float64(reps)
	return allReduceResult{
		opsPerSec:        ops / seconds,
		mbPerSecPerPlace: ops * float64(8*words) / seconds / 1e6,
	}, nil
}
