package x10rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func newTestChan(t *testing.T, n int, opts ...func(*ChanOptions)) *ChanTransport {
	t.Helper()
	o := ChanOptions{Places: n}
	for _, f := range opts {
		f(&o)
	}
	tr, err := NewChanTransport(o)
	if err != nil {
		t.Fatalf("NewChanTransport: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestChanBasicDelivery(t *testing.T) {
	tr := newTestChan(t, 4)
	got := make(chan [2]int, 1)
	if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
		got <- [2]int{src, payload.(int)}
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := tr.Send(1, 3, UserHandlerBase, 42, 8, DataClass); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-got:
		if m[0] != 1 || m[1] != 42 {
			t.Fatalf("got src=%d payload=%d, want 1, 42", m[0], m[1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestChanSelfSend(t *testing.T) {
	tr := newTestChan(t, 1)
	done := make(chan struct{})
	if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
		close(done)
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := tr.Send(0, 0, UserHandlerBase, nil, 0, DataClass); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("self send not delivered")
	}
}

func TestChanFIFOPerLink(t *testing.T) {
	tr := newTestChan(t, 2)
	const n = 1000
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
		mu.Lock()
		got = append(got, payload.(int))
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Send(0, 1, UserHandlerBase, i, 4, DataClass); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	<-done
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery out of order at %d: got %d", i, v)
		}
	}
}

func TestChanReorderingOnlyControl(t *testing.T) {
	// With a reorder seed, control messages may be delivered out of
	// order but data messages on one link must stay FIFO.
	tr := newTestChan(t, 2, func(o *ChanOptions) { o.ReorderSeed = 12345 })
	const n = 500
	var mu sync.Mutex
	var data []int
	var ctl []int
	var wg sync.WaitGroup
	wg.Add(2 * n)
	if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
		mu.Lock()
		data = append(data, payload.(int))
		mu.Unlock()
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(UserHandlerBase+1, func(src, dst int, payload any) {
		mu.Lock()
		ctl = append(ctl, payload.(int))
		mu.Unlock()
		wg.Done()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Send(0, 1, UserHandlerBase, i, 4, DataClass); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(0, 1, UserHandlerBase+1, i, 4, ControlClass); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// All messages arrive exactly once.
	if len(data) != n || len(ctl) != n {
		t.Fatalf("lost messages: data=%d ctl=%d want %d", len(data), len(ctl), n)
	}
	seen := make(map[int]bool, n)
	for _, v := range ctl {
		if seen[v] {
			t.Fatalf("duplicate control message %d", v)
		}
		seen[v] = true
	}
	reordered := false
	for i, v := range ctl {
		if v != i {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Error("expected control reordering with seed set; delivery was FIFO")
	}
}

func TestChanStats(t *testing.T) {
	tr := newTestChan(t, 2)
	if err := tr.Register(UserHandlerBase, func(int, int, any) {}); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats()
	for i := 0; i < 10; i++ {
		if err := tr.Send(0, 1, UserHandlerBase, nil, 100, DataClass); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := tr.Send(0, 1, UserHandlerBase, nil, 8, ControlClass); err != nil {
			t.Fatal(err)
		}
	}
	d := tr.Stats().Sub(before)
	if d.Messages[DataClass] != 10 || d.Bytes[DataClass] != 1000 {
		t.Errorf("data counters = %d msgs %d bytes, want 10, 1000",
			d.Messages[DataClass], d.Bytes[DataClass])
	}
	if d.Messages[ControlClass] != 3 || d.Bytes[ControlClass] != 24 {
		t.Errorf("control counters = %d msgs %d bytes, want 3, 24",
			d.Messages[ControlClass], d.Bytes[ControlClass])
	}
	if d.TotalMessages() != 13 || d.TotalBytes() != 1024 {
		t.Errorf("totals = %d msgs %d bytes, want 13, 1024", d.TotalMessages(), d.TotalBytes())
	}
}

func TestChanErrors(t *testing.T) {
	tr := newTestChan(t, 2)
	if err := tr.Register(UserHandlerBase, func(int, int, any) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(UserHandlerBase, func(int, int, any) {}); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := tr.Send(0, 5, UserHandlerBase, nil, 0, DataClass); err == nil {
		t.Error("Send to out-of-range place succeeded")
	}
	if err := tr.Send(-1, 0, UserHandlerBase, nil, 0, DataClass); err == nil {
		t.Error("Send from negative place succeeded")
	}
	if err := tr.Send(0, 1, UserHandlerBase+9, nil, 0, DataClass); err == nil {
		t.Error("Send to unregistered handler succeeded")
	}
	tr.Close()
	if err := tr.Send(0, 1, UserHandlerBase, nil, 0, DataClass); err == nil {
		t.Error("Send after Close succeeded")
	}
	if _, err := NewChanTransport(ChanOptions{Places: 0}); err == nil {
		t.Error("NewChanTransport with 0 places succeeded")
	}
}

func TestChanHandlersMaySend(t *testing.T) {
	// A handler forwarding to the next place must not deadlock; this is
	// the unbounded-mailbox contract relied on by the finish protocols.
	tr := newTestChan(t, 8)
	done := make(chan int, 1)
	if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
		hop := payload.(int)
		if hop >= 100 {
			done <- hop
			return
		}
		if err := tr.Send((src+1)%8, (src+2)%8, UserHandlerBase, hop+1, 4, DataClass); err != nil {
			t.Errorf("forward: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, 1, UserHandlerBase, 0, 4, DataClass); err != nil {
		t.Fatal(err)
	}
	select {
	case hops := <-done:
		if hops != 100 {
			t.Fatalf("hops = %d, want 100", hops)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("forwarding chain stalled")
	}
}

func TestChanConcurrentSenders(t *testing.T) {
	tr := newTestChan(t, 8)
	var received atomic.Int64
	if err := tr.Register(UserHandlerBase, func(int, int, any) {
		received.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	const perSender = 500
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := tr.Send(s, (s+i)%8, UserHandlerBase, i, 8, DataClass); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	tr.Quiesce()
	if got := received.Load(); got != 8*perSender {
		t.Fatalf("received %d messages, want %d", got, 8*perSender)
	}
}

func TestChanLatencyInjection(t *testing.T) {
	delay := 20 * time.Millisecond
	tr := newTestChan(t, 2, func(o *ChanOptions) {
		o.Latency = func(src, dst, bytes int, class Class) time.Duration { return delay }
	})
	got := make(chan time.Time, 1)
	if err := tr.Register(UserHandlerBase, func(int, int, any) { got <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tr.Send(0, 1, UserHandlerBase, nil, 0, DataClass); err != nil {
		t.Fatal(err)
	}
	arrived := <-got
	if e := arrived.Sub(start); e < delay {
		t.Errorf("delivered after %v, want >= %v", e, delay)
	}
}

// TestChanDeliveryIsExactlyOnce is a property test: for any batch of sends
// described by (src, dst, value) triples, every message is delivered exactly
// once regardless of reordering.
func TestChanDeliveryIsExactlyOnce(t *testing.T) {
	f := func(triples [][3]uint8, seed int64) bool {
		if len(triples) > 200 {
			triples = triples[:200]
		}
		tr, err := NewChanTransport(ChanOptions{Places: 4, ReorderSeed: seed})
		if err != nil {
			return false
		}
		defer tr.Close()
		var mu sync.Mutex
		sum := 0
		count := 0
		if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
			mu.Lock()
			sum += payload.(int)
			count++
			mu.Unlock()
		}); err != nil {
			return false
		}
		want := 0
		for i, tr3 := range triples {
			src, dst, v := int(tr3[0])%4, int(tr3[1])%4, int(tr3[2])
			class := DataClass
			if i%2 == 0 {
				class = ControlClass
			}
			if err := tr.Send(src, dst, UserHandlerBase, v, 1, class); err != nil {
				return false
			}
			want += v
		}
		tr.Quiesce()
		mu.Lock()
		defer mu.Unlock()
		return sum == want && count == len(triples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestChanMailboxStandingBacklog holds a backlog of n messages while
// the dispatcher pops about as fast as senders push, and counts the
// pending messages enqueue slides to the slice's front. The mailbox
// starts sized to the backlog, as ChanOptions.MailboxHint sizes it, so
// it is full from the first cycle on. Slides must
// stay at constant amortized cost per message, and the slice must not
// grow without bound.
func TestChanMailboxStandingBacklog(t *testing.T) {
	const n, cycles = 1000, 100000
	ep := &chanEndpoint{queue: make([]chanMsg, 0, n)}
	ep.cond = sync.NewCond(&ep.mu)
	var slot uint64
	moved := 0
	push := func() {
		len0, head0 := len(ep.queue), ep.head
		ep.enqueueLocked(chanMsg{slot: slot})
		slot++
		if head0 > 0 && ep.head == 0 {
			moved += len0 - head0
		}
	}
	for i := 0; i < n; i++ {
		push()
	}
	next := uint64(0)
	for c := 0; c < cycles; c++ {
		if m := ep.popLocked(); m.slot != next {
			t.Fatalf("cycle %d: popped slot %d, want %d", c, m.slot, next)
		}
		next++
		push()
	}
	if per := float64(moved) / cycles; per > 2 {
		t.Errorf("enqueue slid %.1f pending messages per message, want <= 2", per)
	}
	if c := cap(ep.queue); c > 4*n {
		t.Errorf("mailbox capacity %d for a backlog of %d", c, n)
	}
}
