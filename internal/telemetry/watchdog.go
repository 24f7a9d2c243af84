package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"apgas/internal/core"
	"apgas/internal/obs"
)

// WatchdogOptions tunes the finish stall watchdog.
type WatchdogOptions struct {
	// Window is how long a waiting finish root may go without processing
	// a single event before it is declared stalled (default 5s).
	Window time.Duration
	// Poll is the sampling interval (default Window/4, min 10ms).
	Poll time.Duration
	// Out receives stall dumps (default os.Stderr).
	Out io.Writer
	// FlightTail is the number of recent flight-recorder events appended
	// to each dump (default 64; negative suppresses the tail).
	FlightTail int
}

func (o *WatchdogOptions) applyDefaults() {
	if o.Window <= 0 {
		o.Window = 5 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = o.Window / 4
	}
	if o.Poll < 10*time.Millisecond {
		o.Poll = 10 * time.Millisecond
	}
	if o.Out == nil {
		o.Out = os.Stderr
	}
	if o.FlightTail == 0 {
		o.FlightTail = 64
	}
}

// rootKey identifies a finish root across watchdog samples.
type rootKey struct {
	home core.Place
	seq  uint64
}

// rootTrack is the watchdog's memory of one root: the last Events value
// seen, when it last changed, and whether this stall episode has already
// been dumped (one dump per episode; progress rearms).
type rootTrack struct {
	events  uint64
	since   time.Time
	dumped  bool
	seenNow bool
}

// Watchdog monitors a runtime's finish roots for stalls. Every root's
// Events counter is monotone — it ticks on every spawn, termination, and
// control message the root processes — so a root that is Waiting, not
// Done, has pending work, and whose Events counter has not moved for a
// full Window has truly made zero progress: its dump is emitted, naming
// the finish pattern and the who-owes-whom deficits (which place owes how
// many activity completions), followed by the proxy/dense-buffer state
// and the tail of the flight recorder. A slow-but-progressing finish
// keeps ticking Events and never triggers.
type Watchdog struct {
	rt   *core.Runtime
	opts WatchdogOptions

	mu     sync.Mutex
	tracks map[rootKey]*rootTrack
	stalls int

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// StartWatchdog begins monitoring rt and returns the running watchdog.
// Call Stop when the runtime's work is done.
func StartWatchdog(rt *core.Runtime, opts WatchdogOptions) *Watchdog {
	opts.applyDefaults()
	w := &Watchdog{
		rt:     rt,
		opts:   opts,
		tracks: make(map[rootKey]*rootTrack),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go w.loop()
	return w
}

// Stop halts the watchdog and waits for its goroutine to exit.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stopCh) })
	<-w.doneCh
}

// Stalls returns the number of stall dumps emitted so far.
func (w *Watchdog) Stalls() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalls
}

func (w *Watchdog) loop() {
	defer close(w.doneCh)
	ticker := time.NewTicker(w.opts.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case now := <-ticker.C:
			w.sample(now)
		}
	}
}

func (w *Watchdog) sample(now time.Time) {
	states := w.rt.FinishStates()
	w.mu.Lock()
	for _, tr := range w.tracks {
		tr.seenNow = false
	}
	var stalled []core.FinishState
	for _, s := range states {
		key := rootKey{home: s.Home, seq: s.Seq}
		tr, ok := w.tracks[key]
		if !ok {
			tr = &rootTrack{events: s.Events, since: now}
			w.tracks[key] = tr
		}
		tr.seenNow = true
		if s.Events != tr.events {
			tr.events = s.Events
			tr.since = now
			tr.dumped = false // progress rearms the episode
			continue
		}
		// Only a root that is actually waiting on outstanding work can
		// stall; a root still running its body, or one with nothing
		// pending, is not a hang.
		pending := s.Live != 0 || len(s.Deficits) > 0
		if s.Waiting && !s.Done && pending && !tr.dumped && now.Sub(tr.since) >= w.opts.Window {
			tr.dumped = true
			stalled = append(stalled, s)
		}
	}
	for key, tr := range w.tracks {
		if !tr.seenNow {
			delete(w.tracks, key) // root completed and was deregistered
		}
	}
	w.mu.Unlock()
	for _, s := range stalled {
		w.dump(s, now)
		// Counted once written, so a reader that sees the count sees
		// the whole dump.
		w.mu.Lock()
		w.stalls++
		w.mu.Unlock()
	}
}

// dump emits one stall report: the actionable header (pattern, place,
// pending counts), the full finish diagnostic, and the flight tail.
func (w *Watchdog) dump(s core.FinishState, now time.Time) {
	out := w.opts.Out
	fmt.Fprintf(out, "\napgas stall watchdog: %s home=p%d seq=%d made no progress for %v "+
		"(events=%d live=%d)\n", s.Pattern, s.Home, s.Seq, w.opts.Window.Round(time.Millisecond),
		s.Events, s.Live)
	fmt.Fprintf(out, "  runtime: %s\n", obs.TakeRuntimeSnapshot())
	if len(s.Deficits) == 0 {
		fmt.Fprintf(out, "  %d governed activities have not terminated at the home place\n", s.Live)
	}
	for _, d := range s.Deficits {
		// A dead debtor will never pay: the pending credits are owed to
		// the resilient-finish adoption sweep, not the network. Naming
		// that in the dump separates "place is wedged" from "place is
		// gone and adoption has not caught up yet".
		note := ""
		if w.rt.PlaceDead(d.Place) {
			note = " [place is DEAD; credits forgiven by adoption]"
		}
		fmt.Fprintf(out, "  owes: place p%d pending=%d (sent=%d recv=%d)%s\n",
			d.Place, d.Pending(), d.Sent, d.Recv, note)
	}
	// With distributed tracing on, name not just the owing place but the
	// chain of spans — who spawned what, where — leading to each stuck
	// activity (oldest leaves first, capped to keep dumps readable).
	if chains := w.rt.CausalChains(s.Home, s.Seq, 8); len(chains) > 0 {
		fmt.Fprintf(out, "  causal chains of live spans (stuck leaf first):\n")
		for _, chain := range chains {
			fmt.Fprintf(out, "   ")
			for i, cs := range chain {
				if i > 0 {
					fmt.Fprintf(out, " <-")
				}
				if cs.Src != cs.Place {
					fmt.Fprintf(out, " %s#%d@p%d(from p%d)", cs.Name, cs.Span, cs.Place, cs.Src)
				} else {
					fmt.Fprintf(out, " %s#%d@p%d", cs.Name, cs.Span, cs.Place)
				}
			}
			fmt.Fprintln(out)
		}
	}
	w.rt.WriteFinishDump(out)
	if w.opts.FlightTail >= 0 {
		if f := w.rt.Obs().FlightRecorder(); f != nil {
			fmt.Fprintf(out, "recent flight events (newest last):\n")
			f.WriteText(out, w.opts.FlightTail)
		}
	}
	// Attach memory state to the stall: a heap profile lands in the ring
	// so it can be pulled over /debug/profilez after the fact.
	if r := w.rt.Obs().ProfileRing(); r != nil {
		if seq, err := r.CaptureHeap(); err == nil {
			fmt.Fprintf(out, "heap profile captured as ring snapshot #%d (GET /debug/profilez?seq=%d)\n", seq, seq)
		}
	}
}
