package chaos

import (
	"fmt"
	"strings"

	"apgas/internal/core"
	"apgas/internal/x10rt"
)

// The invariant checker runs after a workload's Run has returned and
// the transport has been drained (Transport.Drain), when the system
// must be fully quiescent. Violations at that point are protocol bugs,
// not timing artifacts — every fault in the deliverability-preserving
// menu guarantees eventual delivery, so a correct runtime has no
// excuse for leftover state.

// A Violation is one broken invariant with enough detail to act on.
type Violation struct {
	// Kind is a stable label: "finish-leak", "proxy-leak",
	// "dense-buffer-leak", "conservation", "stats-sum".
	Kind   string
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// FormatViolations renders violations one per line for test output.
func FormatViolations(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// CheckRuntime verifies the quiescence and conservation invariants of
// a runtime whose Run has returned:
//
//   - no FinishState survives (roots are deregistered when wait
//     returns; a leftover root leaked),
//   - no ProxyState survives (proxies are reaped by ctlCleanup; a
//     leftover proxy means a lost cleanup),
//   - every FINISH_DENSE coalescing buffer drained (a leftover
//     snapshot means a lost flush marker),
//   - for every finish pattern, activities spawned == activities
//     completed (an imbalance means the termination detector declared
//     quiescence while losing or double-counting an activity).
func CheckRuntime(rt *core.Runtime) []Violation {
	var vs []Violation
	for _, s := range rt.FinishStates() {
		vs = append(vs, Violation{
			Kind: "finish-leak",
			Detail: fmt.Sprintf("%s home=p%d seq=%d waiting=%v done=%v live=%d events=%d",
				s.Pattern, s.Home, s.Seq, s.Waiting, s.Done, s.Live, s.Events),
		})
	}
	for _, p := range rt.ProxyStates() {
		vs = append(vs, Violation{
			Kind: "proxy-leak",
			Detail: fmt.Sprintf("%s home=p%d seq=%d at=p%d live=%d epoch=%d",
				p.Pattern, p.Home, p.Seq, p.Place, p.Live, p.Epoch),
		})
	}
	for _, b := range rt.DenseBufferStates() {
		vs = append(vs, Violation{
			Kind: "dense-buffer-leak",
			Detail: fmt.Sprintf("master=p%d finish home=p%d seq=%d buffered=%d",
				b.Place, b.Home, b.Seq, b.Buffered),
		})
	}
	for _, a := range rt.ActivityCounts() {
		if !a.Balanced() {
			vs = append(vs, Violation{
				Kind: "conservation",
				Detail: fmt.Sprintf("%s spawned=%d completed=%d",
					a.Pattern, a.Spawned, a.Completed),
			})
		}
	}
	return vs
}

// CheckTransport verifies the telemetry sum-equality invariant from
// the per-place accounting contract: total Stats must equal the sum of
// PlaceStats over all places, message- and byte-exact per class.
func CheckTransport(tr x10rt.Transport) []Violation {
	var sum x10rt.Stats
	for p := 0; p < tr.NumPlaces(); p++ {
		sum = sum.Add(tr.PlaceStats(p))
	}
	if total := tr.Stats(); total != sum {
		return []Violation{{
			Kind:   "stats-sum",
			Detail: fmt.Sprintf("Stats{%v} != Σ PlaceStats{%v}", total, sum),
		}}
	}
	return nil
}

// CheckAll combines the runtime and transport invariants.
func CheckAll(rt *core.Runtime, tr x10rt.Transport) []Violation {
	return append(CheckRuntime(rt), CheckTransport(tr)...)
}

// CheckRuntimeSurvivors is the kill-run variant of CheckRuntime: the
// quiescence invariants are restricted to the places that survived, and
// global per-pattern activity conservation — which a spawn lost to the
// victim legitimately unbalances — is replaced by the per-place
// begun==completed oracle, which must stay exact at every live place.
func CheckRuntimeSurvivors(rt *core.Runtime) []Violation {
	dead := make(map[core.Place]bool)
	for _, p := range rt.DeadPlaces() {
		dead[p] = true
	}
	var vs []Violation
	for _, s := range rt.FinishStates() {
		if dead[s.Home] {
			continue
		}
		vs = append(vs, Violation{
			Kind: "finish-leak",
			Detail: fmt.Sprintf("%s home=p%d seq=%d waiting=%v done=%v live=%d events=%d",
				s.Pattern, s.Home, s.Seq, s.Waiting, s.Done, s.Live, s.Events),
		})
	}
	for _, p := range rt.ProxyStates() {
		if dead[p.Place] || dead[p.Home] {
			continue
		}
		vs = append(vs, Violation{
			Kind: "proxy-leak",
			Detail: fmt.Sprintf("%s home=p%d seq=%d at=p%d live=%d epoch=%d",
				p.Pattern, p.Home, p.Seq, p.Place, p.Live, p.Epoch),
		})
	}
	for _, b := range rt.DenseBufferStates() {
		if dead[b.Place] || dead[b.Home] {
			continue
		}
		vs = append(vs, Violation{
			Kind: "dense-buffer-leak",
			Detail: fmt.Sprintf("master=p%d finish home=p%d seq=%d buffered=%d",
				b.Place, b.Home, b.Seq, b.Buffered),
		})
	}
	for _, pc := range rt.PlaceActivityCounts() {
		if dead[pc.Place] {
			continue
		}
		if !pc.Balanced() {
			vs = append(vs, Violation{
				Kind: "conservation",
				Detail: fmt.Sprintf("place %d: begun=%d completed=%d",
					pc.Place, pc.Begun, pc.Completed),
			})
		}
	}
	return vs
}

// CheckAllSurvivors combines the survivor-restricted runtime invariants
// with the transport sum-equality check (total and per-place counts are
// views of one link table, so their equality survives a mid-run kill
// once traffic has stopped).
func CheckAllSurvivors(rt *core.Runtime, tr x10rt.Transport) []Violation {
	return append(CheckRuntimeSurvivors(rt), CheckTransport(tr)...)
}
