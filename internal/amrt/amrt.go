// Package amrt is an active-message runtime: the subset of the APGAS
// programming model that works across address spaces, built directly on
// the x10rt transport layer. Where package core ships Go closures between
// in-process places, amrt ships (handler name, argument bytes) pairs — the
// form a multi-process deployment over the TCP transport requires, since
// closures do not serialize. It is the repository's demonstration that the
// runtime's layering holds up over real sockets: the same finish-counting
// and collective protocols, with registration replacing closure capture.
//
// The programming model:
//
//   - Register named handlers (identically at every endpoint, the SPMD
//     registration rule of X10RT).
//   - Call performs a synchronous remote invocation with a reply
//     (at-expression style).
//   - Finish/Spawn provide FINISH_SPMD-style termination detection:
//     activities spawned by the finish body are counted home with one
//     completion message each; spawned handlers may Call freely but must
//     wrap further Spawns in their own Finish.
//   - Barrier is a dissemination barrier over active messages.
package amrt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"apgas/internal/x10rt"
)

// Handler is a named remote procedure: it receives the calling place and
// argument bytes and returns reply bytes (nil is fine).
type Handler func(src int, arg []byte) []byte

// Runtime is one place's endpoint of an active-message computation.
type Runtime struct {
	tr x10rt.Transport
	me int

	mu       sync.Mutex
	handlers map[string]Handler

	callSeq   atomic.Uint64
	callMu    sync.Mutex
	callWait  map[uint64]chan []byte
	finSeq    atomic.Uint64
	finMu     sync.Mutex
	finishes  map[uint64]*finState
	barrierMu sync.Mutex
	barrier   map[barrierKey]chan struct{}
	round     uint64
}

type finState struct {
	mu      sync.Mutex
	pending int
	done    chan struct{}
	waiting bool
}

type barrierKey struct {
	Round uint64
	Step  int
	Src   int
}

// Wire message types: flat structs, so RegisterWireType gives each a
// binary codec on TCP transports.
type callMsg struct {
	ID   uint64
	Name string
	Arg  []byte
}

type replyMsg struct {
	ID  uint64
	Out []byte
}

type spawnTask struct {
	Fin  uint64
	Home int
	Name string
	Arg  []byte
}

type spawnDone struct {
	Fin uint64
}

type barrierTok struct {
	Round uint64
	Step  int
}

func init() {
	x10rt.RegisterWireType(callMsg{})
	x10rt.RegisterWireType(replyMsg{})
	x10rt.RegisterWireType(spawnTask{})
	x10rt.RegisterWireType(spawnDone{})
	x10rt.RegisterWireType(barrierTok{})
}

// amrt handler identifiers, above the core runtime's reserved range.
const (
	hCall x10rt.HandlerID = x10rt.UserHandlerBase + 16 + iota
	hReply
	hSpawn
	hSpawnDone
	hBarrier
)

// New creates the runtime for place me on tr and registers its transport
// handlers. Each endpoint of a mesh gets its own Runtime.
func New(tr x10rt.Transport, me int) (*Runtime, error) {
	r := &Runtime{
		tr:       tr,
		me:       me,
		handlers: make(map[string]Handler),
		callWait: make(map[uint64]chan []byte),
		finishes: make(map[uint64]*finState),
		barrier:  make(map[barrierKey]chan struct{}),
	}
	for id, h := range map[x10rt.HandlerID]x10rt.Handler{
		hCall:      r.onCall,
		hReply:     r.onReply,
		hSpawn:     r.onSpawn,
		hSpawnDone: r.onSpawnDone,
		hBarrier:   r.onBarrier,
	} {
		if err := tr.Register(id, h); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Place returns this endpoint's place index.
func (r *Runtime) Place() int { return r.me }

// Places returns the number of places in the mesh.
func (r *Runtime) Places() int { return r.tr.NumPlaces() }

// Register installs a named handler. Names must be registered identically
// at every place before use.
func (r *Runtime) Register(name string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.handlers[name]; dup {
		panic(fmt.Sprintf("amrt: handler %q already registered", name))
	}
	r.handlers[name] = h
}

func (r *Runtime) lookup(name string) Handler {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.handlers[name]
}

// Call invokes the named handler at dst and blocks for its reply.
func (r *Runtime) Call(dst int, name string, arg []byte) ([]byte, error) {
	id := r.callSeq.Add(1)
	ch := make(chan []byte, 1)
	r.callMu.Lock()
	r.callWait[id] = ch
	r.callMu.Unlock()
	err := r.tr.Send(r.me, dst, hCall, callMsg{ID: id, Name: name, Arg: arg},
		16+len(arg), x10rt.DataClass)
	if err != nil {
		r.callMu.Lock()
		delete(r.callWait, id)
		r.callMu.Unlock()
		return nil, err
	}
	return <-ch, nil
}

func (r *Runtime) onCall(src, dst int, payload any) {
	m := payload.(callMsg)
	h := r.lookup(m.Name)
	if h == nil {
		panic(fmt.Sprintf("amrt: call to unregistered handler %q at place %d", m.Name, dst))
	}
	// Run the handler off the dispatcher so handlers may Call in turn.
	go func() {
		out := h(src, m.Arg)
		if err := r.tr.Send(r.me, src, hReply, replyMsg{ID: m.ID, Out: out},
			16+len(out), x10rt.DataClass); err != nil {
			panic(fmt.Sprintf("amrt: reply: %v", err))
		}
	}()
}

func (r *Runtime) onReply(src, dst int, payload any) {
	m := payload.(replyMsg)
	r.callMu.Lock()
	ch := r.callWait[m.ID]
	delete(r.callWait, m.ID)
	r.callMu.Unlock()
	if ch != nil {
		ch <- m.Out
	}
}

// Finish runs body, whose Spawn calls are counted, and blocks until every
// spawned handler has completed — the FINISH_SPMD protocol: one completion
// message per spawn, order and source irrelevant.
func (r *Runtime) Finish(body func(spawn func(dst int, name string, arg []byte))) error {
	id := r.finSeq.Add(1)
	st := &finState{done: make(chan struct{})}
	r.finMu.Lock()
	r.finishes[id] = st
	r.finMu.Unlock()

	var spawnErr error
	spawn := func(dst int, name string, arg []byte) {
		st.mu.Lock()
		st.pending++
		st.mu.Unlock()
		err := r.tr.Send(r.me, dst, hSpawn,
			spawnTask{Fin: id, Home: r.me, Name: name, Arg: arg},
			24+len(arg), x10rt.DataClass)
		if err != nil && spawnErr == nil {
			spawnErr = err
		}
	}
	body(spawn)

	st.mu.Lock()
	st.waiting = true
	donealready := st.pending == 0
	st.mu.Unlock()
	if !donealready {
		<-st.done
	}
	r.finMu.Lock()
	delete(r.finishes, id)
	r.finMu.Unlock()
	return spawnErr
}

func (r *Runtime) onSpawn(src, dst int, payload any) {
	m := payload.(spawnTask)
	h := r.lookup(m.Name)
	if h == nil {
		panic(fmt.Sprintf("amrt: spawn of unregistered handler %q at place %d", m.Name, dst))
	}
	go func() {
		h(src, m.Arg)
		if err := r.tr.Send(r.me, m.Home, hSpawnDone, spawnDone{Fin: m.Fin},
			16, x10rt.ControlClass); err != nil {
			panic(fmt.Sprintf("amrt: spawn done: %v", err))
		}
	}()
}

func (r *Runtime) onSpawnDone(src, dst int, payload any) {
	m := payload.(spawnDone)
	r.finMu.Lock()
	st := r.finishes[m.Fin]
	r.finMu.Unlock()
	if st == nil {
		panic(fmt.Sprintf("amrt: completion for unknown finish %d", m.Fin))
	}
	st.mu.Lock()
	st.pending--
	fire := st.waiting && st.pending == 0
	st.mu.Unlock()
	if fire {
		close(st.done)
	}
}

// Barrier blocks until every place has entered the same barrier round — a
// dissemination barrier: log2(n) rounds of token exchange. All places must
// call Barrier the same number of times.
func (r *Runtime) Barrier() error {
	n := r.Places()
	if n == 1 {
		return nil
	}
	r.barrierMu.Lock()
	r.round++
	round := r.round
	r.barrierMu.Unlock()
	for step, dist := 0, 1; dist < n; step, dist = step+1, dist*2 {
		dst := (r.me + dist) % n
		if err := r.tr.Send(r.me, dst, hBarrier,
			barrierTok{Round: round, Step: step}, 16, x10rt.CollectiveClass); err != nil {
			return err
		}
		src := (r.me - dist + n) % n
		k := barrierKey{Round: round, Step: step, Src: src}
		<-r.barrierChan(k)
		r.barrierMu.Lock()
		delete(r.barrier, k) // round tokens are one-shot
		r.barrierMu.Unlock()
	}
	return nil
}

func (r *Runtime) barrierChan(k barrierKey) chan struct{} {
	r.barrierMu.Lock()
	defer r.barrierMu.Unlock()
	ch, ok := r.barrier[k]
	if !ok {
		ch = make(chan struct{})
		r.barrier[k] = ch
	}
	return ch
}

func (r *Runtime) onBarrier(src, dst int, payload any) {
	m := payload.(barrierTok)
	close(r.barrierChan(barrierKey{Round: m.Round, Step: m.Step, Src: src}))
}
