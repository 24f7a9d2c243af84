package x10rt

import "sync"

// CountingTransport decorates a Transport with per-link accounting:
// message counts per (src, dst, class) link. The finish ablation studies
// use it to measure traffic *shape* — fan-in at a finish home, out-degree
// per place — which is what the Power 775 interconnect cared about, not
// just aggregate counts (§3.1: the default finish "may flood the network
// interface of the place of the activity waiting on the finish").
//
// It counts only Send and SendOneSided; every other method is the
// wrapped transport's.
type CountingTransport struct {
	Transport
	mu    sync.Mutex
	links map[linkKey]uint64
}

type linkKey struct {
	src, dst int
	class    Class
}

// NewCountingTransport wraps inner with per-link accounting.
func NewCountingTransport(inner Transport) *CountingTransport {
	return &CountingTransport{Transport: inner, links: make(map[linkKey]uint64)}
}

// Send implements Transport.
func (t *CountingTransport) Send(src, dst int, id HandlerID, payload any, bytes int, class Class) error {
	if err := t.Transport.Send(src, dst, id, payload, bytes, class); err != nil {
		return err
	}
	if countable(id) {
		t.mu.Lock()
		t.links[linkKey{src, dst, class}]++
		t.mu.Unlock()
	}
	return nil
}

// SendOneSided implements Transport; the op counts as one DataClass
// message on its link.
func (t *CountingTransport) SendOneSided(src, dst int, op *OneSidedOp) error {
	if err := t.Transport.SendOneSided(src, dst, op); err != nil {
		return err
	}
	t.mu.Lock()
	t.links[linkKey{src, dst, DataClass}]++
	t.mu.Unlock()
	return nil
}

// Reset clears the per-link counters.
func (t *CountingTransport) Reset() {
	t.mu.Lock()
	t.links = make(map[linkKey]uint64)
	t.mu.Unlock()
}

// FanIn returns, for the given class, the number of distinct sources that
// sent to dst and the total messages dst received.
func (t *CountingTransport) FanIn(dst int, class Class) (sources int, messages uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, n := range t.links {
		if k.dst == dst && k.class == class && k.src != dst {
			sources++
			messages += n
		}
	}
	return sources, messages
}

// MaxOutDegree returns the largest number of distinct destinations any
// single place sent class-traffic to (excluding self-sends).
func (t *CountingTransport) MaxOutDegree(class Class) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	perSrc := make(map[int]int)
	for k := range t.links {
		if k.class == class && k.src != k.dst {
			perSrc[k.src]++
		}
	}
	max := 0
	for _, d := range perSrc {
		if d > max {
			max = d
		}
	}
	return max
}

// MaxInDegree returns the largest number of distinct sources any single
// place received class-traffic from (excluding self-sends).
func (t *CountingTransport) MaxInDegree(class Class) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	perDst := make(map[int]int)
	for k := range t.links {
		if k.class == class && k.src != k.dst {
			perDst[k.dst]++
		}
	}
	max := 0
	for _, d := range perDst {
		if d > max {
			max = d
		}
	}
	return max
}
