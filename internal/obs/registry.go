package obs

import (
	"fmt"
	"io"
	"maps"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, and all methods are safe on a nil receiver (no-ops), so
// instrumented code can hold nil handles when observability is disabled.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic signed level (e.g. currently blocked scheduler
// slots). The zero value is ready; methods are nil-receiver safe.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// zeros and bucket i>0 holds [2^(i-1), 2^i). Values beyond the last
// bucket clamp into it.
const HistBuckets = 40

// Histogram is a lock-free power-of-two histogram. The zero value is
// ready; methods are nil-receiver safe.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the lower bound of the bucket holding the q-quantile
// (0 <= q <= 1) of the observed values: 0 for the zero bucket, 2^(i-1)
// for bucket i. When every observation is an exact power of two the
// readout is therefore exact. Returns 0 on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	var buckets [HistBuckets]uint64
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return bucketQuantile(buckets[:], q)
}

// bucketQuantile is the shared quantile walk over power-of-two bucket
// counts (see HistBuckets for the bucket layout).
func bucketQuantile(buckets []uint64, q float64) uint64 {
	var total uint64
	for _, b := range buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the observation the quantile names
	// (nearest-rank: ceil(q*N)).
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, b := range buckets {
		cum += b
		if cum >= rank {
			if i == 0 {
				return 0
			}
			return 1 << (i - 1)
		}
	}
	return 1 << (len(buckets) - 2)
}

// Kind discriminates the metric types inside a Snapshot.
type Kind uint8

const (
	// KindCounter marks a Counter value.
	KindCounter Kind = iota
	// KindGauge marks a Gauge value.
	KindGauge
	// KindHistogram marks a Histogram value.
	KindHistogram
)

// Value is one metric's state inside a Snapshot.
type Value struct {
	Kind Kind
	// Count is the counter value, or the histogram observation count.
	Count uint64
	// Gauge is the gauge level (KindGauge only).
	Gauge int64
	// Sum is the histogram value sum (KindHistogram only).
	Sum uint64
	// Buckets are the histogram bucket counts (KindHistogram only).
	Buckets []uint64
}

// Snapshot is a point-in-time copy of a registry's metrics by name.
type Snapshot map[string]Value

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s[name].Count }

// Quantile returns the power-of-two bucket lower bound of the
// q-quantile of a histogram Value (0 for non-histograms or empty
// histograms). It works on snapshot, Sub, and merged values alike,
// since all carry the same bucket layout.
func (v Value) Quantile(q float64) uint64 {
	if len(v.Buckets) == 0 {
		return 0
	}
	return bucketQuantile(v.Buckets, q)
}

// Gauge returns the named gauge's level (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s[name].Gauge }

// Sub returns the interval s - prev: counters and histograms subtract
// (saturating at zero, so a metric re-registered by a newer runtime never
// underflows), gauges keep their current level.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for name, v := range s {
		p := prev[name]
		d := v
		d.Count = satSub(v.Count, p.Count)
		d.Sum = satSub(v.Sum, p.Sum)
		if len(v.Buckets) > 0 {
			d.Buckets = make([]uint64, len(v.Buckets))
			for i := range v.Buckets {
				var pb uint64
				if i < len(p.Buckets) {
					pb = p.Buckets[i]
				}
				d.Buckets[i] = satSub(v.Buckets[i], pb)
			}
		}
		out[name] = d
	}
	return out
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// WriteText renders the snapshot sorted by name, one metric per line.
func (s Snapshot) WriteText(w io.Writer) {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := s[name]
		switch v.Kind {
		case KindGauge:
			fmt.Fprintf(w, "%-40s %d (gauge)\n", name, v.Gauge)
		case KindHistogram:
			avg := 0.0
			if v.Count > 0 {
				avg = float64(v.Sum) / float64(v.Count)
			}
			fmt.Fprintf(w, "%-40s count=%d sum=%d avg=%.1f\n", name, v.Count, v.Sum, avg)
		default:
			fmt.Fprintf(w, "%-40s %d\n", name, v.Count)
		}
	}
}

// Registry holds named metrics. Names are hierarchical dot-paths, e.g.
// "finish.spmd.count", "glb.steal.attempts", "sched.p3.slots.blocked",
// "x10rt.msgs.control". Get-or-create methods hand back stable handles
// that callers cache; the hot update path is then a single atomic op.
// All methods are safe for concurrent use and nil-receiver safe (a nil
// registry returns nil handles, whose methods are no-ops).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	funcs    map[string]func() uint64 // read-through counters
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		funcs:    make(map[string]func() uint64),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// RegisterCounter adopts an externally owned counter under name, so
// subsystems with their own always-on counters (the transport's traffic
// classes, the scheduler's spawn counts) surface them in snapshots
// without double counting. A later registration under the same name
// replaces the earlier one (a fresh runtime supersedes a closed one).
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	delete(r.funcs, name)
	r.counters[name] = c
	r.mu.Unlock()
}

// RegisterCounterFunc adopts a read-through counter under name: fn is
// called at every snapshot, so a subsystem whose counts live in its own
// structure (a transport's link table) surfaces them without keeping a
// copy. It replaces an earlier registration under name, like
// RegisterCounter.
func (r *Registry) RegisterCounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	delete(r.counters, name)
	r.funcs[name] = fn
	r.mu.Unlock()
}

// RegisterGauge adopts an externally owned gauge under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	if r == nil || g == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// RegisterHistogram adopts an externally owned histogram under name,
// with the same replacement semantics as RegisterCounter.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}

// Snapshot copies every metric's current state.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := make(Snapshot, len(r.counters)+len(r.funcs)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		s[name] = Value{Kind: KindCounter, Count: c.Value()}
	}
	for name, g := range r.gauges {
		s[name] = Value{Kind: KindGauge, Gauge: g.Value()}
	}
	for name, h := range r.hists {
		v := Value{Kind: KindHistogram, Count: h.count.Load(), Sum: h.sum.Load()}
		v.Buckets = make([]uint64, HistBuckets)
		for i := range v.Buckets {
			v.Buckets[i] = h.buckets[i].Load()
		}
		s[name] = v
	}
	// Read-through counters run outside the lock: they are the
	// registering subsystem's code.
	funcs := maps.Clone(r.funcs)
	r.mu.Unlock()
	for name, fn := range funcs {
		s[name] = Value{Kind: KindCounter, Count: fn()}
	}
	return s
}
