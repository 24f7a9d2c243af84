// Package x10rt is the runtime transport layer of the APGAS runtime,
// modeled after the X10 Runtime Transport (X10RT) API described in
// "X10 and APGAS at Petascale" (PPoPP 2014), §3.3.
//
// The X10 runtime has a layered structure: the upper layers (finish
// protocols, collectives, RDMA emulation) are written against the small
// transport interface defined here, and concrete transports adapt it to a
// particular interconnect. This package provides two transports:
//
//   - ChanTransport: an in-process transport in which every place is a
//     logical endpoint inside one operating-system process. It supports
//     fault and disorder injection (per-message delay, reordering) so the
//     termination-detection protocols can be exercised under the network
//     reordering hazards that motivated their design.
//   - TCPTransport: a socket transport with gob-serialized active
//     messages, standing in for the PAMI/sockets backends of X10RT.
//
// Every implementation, concrete or decorator, provides the whole
// Transport contract: point-to-point active messages, the one-sided
// lane, place death, flushing, and the accounting and tracing
// attachments. Collectives and the rest of the runtime are built above
// it, as the paper describes. The one optional capability is
// BatchSender, which only NewBatchingTransport probes for.
package x10rt

import (
	"errors"
	"fmt"
	"sync"

	"apgas/internal/obs"
)

// Handler is an active-message handler. It runs on the destination place's
// dispatcher and receives the source place, the destination place (the
// place the handler is logically executing at), and the message payload.
//
// Handlers must not block indefinitely: they should either complete quickly
// or hand the payload off to a scheduler. They may call Send.
type Handler func(src, dst int, payload any)

// Class labels a message for accounting. The paper's scalability story is
// largely about keeping ControlClass traffic (finish bookkeeping) from
// overwhelming the interconnect, so the transports count classes separately.
type Class uint8

const (
	// DataClass marks application payload messages (asyncs, copies).
	DataClass Class = iota
	// ControlClass marks runtime bookkeeping (finish protocol, clocks).
	ControlClass
	// CollectiveClass marks team/collective traffic.
	CollectiveClass
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case DataClass:
		return "data"
	case ControlClass:
		return "control"
	case CollectiveClass:
		return "collective"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Transport is the point-to-point active message layer connecting places.
//
// All methods are safe for concurrent use. Message delivery between a fixed
// (src, dst) pair is FIFO unless the transport was configured to inject
// reordering; messages from different sources are unordered relative to one
// another, as on a real interconnect.
//
// Decorators (batching, counting, chaos) embed the Transport they wrap
// and override only the methods whose behaviour they change.
type Transport interface {
	// NumPlaces reports the number of places connected by this transport.
	NumPlaces() int

	// Register installs a handler under an identifier. Registration must
	// happen before any Send that names the handler, and identifiers must
	// be registered identically at every place (SPMD-style registration,
	// as required by X10RT).
	Register(id HandlerID, h Handler) error

	// Send delivers an active message: handler id runs at dst with the
	// given payload. bytes is the modeled wire size of the message used
	// for bandwidth accounting (in-process transports do not serialize).
	// Send never blocks on the destination's progress.
	Send(src, dst int, id HandlerID, payload any, bytes int, class Class) error

	// SendOneSided ships op from src to dst on the one-sided lane, with
	// per-link FIFO ordering relative to Send on the same link and
	// DataClass accounting under HandlerOneSided.
	SendOneSided(src, dst int, op *OneSidedOp) error

	// AttachArenas hands the transport the process-wide arena table that
	// one-sided ops land in.
	AttachArenas(at *ArenaTable)

	// Flush pushes every message buffered at source place src (all
	// places when src < 0) out immediately. The runtime calls it at
	// protocol flush points (after a finish quiescence snapshot, after a
	// dense-router forward) where latency, not bandwidth, is on the
	// critical path. Transports that do not buffer return nil.
	Flush(src int) error

	// KillPlace severs place p: sends to or from p fail fast with a
	// *PlaceDeadError, messages queued for delivery at p are discarded,
	// and every NotifyDeath callback fires once per survivor. KillPlace
	// is idempotent; killing an out-of-range place returns ErrBadPlace.
	KillPlace(p int) error

	// PlaceDead reports whether p has been killed.
	PlaceDead(p int) bool

	// NotifyDeath subscribes fn to place deaths. Each callback fires
	// exactly once per (dead place, surviving place) pair: an in-process
	// transport serving n places invokes fn once for every surviving
	// observer; a per-place endpoint (TCP) invokes fn once with its own
	// place as the observer. Callbacks run on a fresh goroutine, never
	// on the goroutine that triggered the kill, so they may call back
	// into the transport freely.
	NotifyDeath(fn func(dead, observer int))

	// Stats returns a snapshot of traffic counters.
	Stats() Stats

	PlaceMetricSource
	LedgerSink

	// AttachTracer lets a serializing transport stamp outgoing batch
	// frames with the sender's hybrid logical clock and fold inbound
	// stamps back in. In-process transports ignore it.
	AttachTracer(tr *obs.Tracer)

	// Close shuts down dispatchers and releases resources. After Close,
	// Send returns ErrClosed.
	Close() error
}

// HandlerID identifies a registered active-message handler.
type HandlerID uint32

// Reserved handler identifiers used by the runtime layers above. User
// applications should register identifiers at UserHandlerBase and above.
const (
	// HandlerSpawn runs a remote activity (core runtime).
	HandlerSpawn HandlerID = iota
	// HandlerFinishCtl carries finish-protocol control traffic.
	HandlerFinishCtl
	// HandlerClockCtl carries clock (dynamic barrier) control traffic.
	HandlerClockCtl
	// HandlerTeamCtl carries emulated collective traffic.
	HandlerTeamCtl
	// HandlerCopy carries RDMA put/get emulation traffic.
	HandlerCopy
	// HandlerGUPS carries remote-atomic-update (GUPS) traffic.
	HandlerGUPS
	// HandlerTelemetry carries cross-place metric collection (the
	// telemetry plane's tree gather). Telemetry messages are excluded
	// from the transport's traffic counters so that *observing* the
	// system does not perturb the numbers being observed — aggregated
	// totals stay exactly equal to the sum of per-place application
	// traffic.
	HandlerTelemetry
	// HandlerOneSided labels the one-sided lane (frame v5) in traffic
	// accounting and the wire ledger. One-sided ops never dispatch to a
	// registered handler — they land directly in an arena — so the id
	// exists purely for attribution.
	HandlerOneSided
	// UserHandlerBase is the first identifier available to applications.
	UserHandlerBase HandlerID = 64
)

// countable reports whether messages to id participate in traffic
// accounting (everything except the telemetry plane's own traffic).
func countable(id HandlerID) bool { return id != HandlerTelemetry }

// ErrClosed is returned by Send after the transport has been closed.
var ErrClosed = errors.New("x10rt: transport closed")

// ErrBadPlace is returned when a place index is out of range.
var ErrBadPlace = errors.New("x10rt: place out of range")

// ErrNoHandler is returned when a message names an unregistered handler.
var ErrNoHandler = errors.New("x10rt: no such handler")

// ErrPlaceDead is the sentinel matched by errors.Is when a Send touches
// a place that has been killed. Concrete failures are *PlaceDeadError
// values wrapping it.
var ErrPlaceDead = errors.New("x10rt: place dead")

// PlaceDeadError is the typed error a transport returns from Send when
// either endpoint of the link has been killed with KillPlace. It
// identifies the dead place and unwraps to ErrPlaceDead.
type PlaceDeadError struct{ Place int }

func (e *PlaceDeadError) Error() string {
	return fmt.Sprintf("x10rt: place %d dead", e.Place)
}

// Unwrap makes errors.Is(err, ErrPlaceDead) hold for any PlaceDeadError.
func (e *PlaceDeadError) Unwrap() error { return ErrPlaceDead }

// deathState is the shared kill bookkeeping used by the concrete
// transports: the dead set, the subscribed callbacks, and the
// fire-exactly-once-per-survivor discipline.
type deathState struct {
	mu   sync.Mutex
	fns  []func(dead, observer int)
	dead map[int]bool
}

func (d *deathState) subscribe(fn func(dead, observer int)) {
	d.mu.Lock()
	d.fns = append(d.fns, fn)
	d.mu.Unlock()
}

func (d *deathState) isDead(p int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead[p]
}

// deadEnd returns the dead endpoint of the (src, dst) link, or -1.
func (d *deathState) deadEnd(src, dst int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[dst] {
		return dst
	}
	if d.dead[src] {
		return src
	}
	return -1
}

// kill marks p dead. It reports whether this call was the first (the
// caller then purges queues and notifies); repeated kills are no-ops.
func (d *deathState) kill(p int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead == nil {
		d.dead = make(map[int]bool)
	}
	if d.dead[p] {
		return false
	}
	d.dead[p] = true
	return true
}

// notify fires every callback once per surviving observer in
// [0, places), on a fresh goroutine. The snapshot of callbacks and of
// the dead set is taken under the lock; the calls happen outside it.
func (d *deathState) notify(dead, places int) {
	d.mu.Lock()
	fns := append(d.fns[:0:0], d.fns...)
	survivors := make([]int, 0, places)
	for p := 0; p < places; p++ {
		if p != dead && !d.dead[p] {
			survivors = append(survivors, p)
		}
	}
	d.mu.Unlock()
	if len(fns) == 0 {
		return
	}
	go func() {
		for _, q := range survivors {
			for _, fn := range fns {
				fn(dead, q)
			}
		}
	}()
}

// notifyOne fires every callback once with a single observer — the
// shape a per-place endpoint (TCP) uses, where each endpoint observes a
// death exactly once, as itself.
func (d *deathState) notifyOne(dead, observer int) {
	d.mu.Lock()
	fns := append(d.fns[:0:0], d.fns...)
	d.mu.Unlock()
	if len(fns) == 0 {
		return
	}
	go func() {
		for _, fn := range fns {
			fn(dead, observer)
		}
	}()
}

// Stats is a snapshot of transport traffic counters.
type Stats struct {
	// Messages counts delivered messages by class.
	Messages [3]uint64
	// Bytes counts modeled wire bytes by class.
	Bytes [3]uint64
	// WireBytes counts bytes actually put on the wire, measured after
	// batching and compression. Serializing transports (TCP) report
	// encoded frame bytes here, so WireBytes / TotalBytes is the
	// effective wire amplification (or, under compression and batching,
	// reduction). In-process transports do not serialize and report the
	// modeled byte count. Wire bytes are attributed to the sender only
	// (egress accounting), like PlaceStats.
	WireBytes uint64
}

// TotalMessages returns the message count summed over classes.
func (s Stats) TotalMessages() uint64 {
	return s.Messages[0] + s.Messages[1] + s.Messages[2]
}

// TotalBytes returns the byte count summed over classes.
func (s Stats) TotalBytes() uint64 {
	return s.Bytes[0] + s.Bytes[1] + s.Bytes[2]
}

// Sub returns s - t counter-wise; useful for interval measurements.
func (s Stats) Sub(t Stats) Stats {
	var r Stats
	for i := range s.Messages {
		r.Messages[i] = s.Messages[i] - t.Messages[i]
		r.Bytes[i] = s.Bytes[i] - t.Bytes[i]
	}
	r.WireBytes = s.WireBytes - t.WireBytes
	return r
}

// String formats the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("data=%d/%dB control=%d/%dB collective=%d/%dB wire=%dB",
		s.Messages[DataClass], s.Bytes[DataClass],
		s.Messages[ControlClass], s.Bytes[ControlClass],
		s.Messages[CollectiveClass], s.Bytes[CollectiveClass],
		s.WireBytes)
}

// PlaceMetricSource is the accounting part of the Transport contract.
// The traffic counters are always on, so Stats is a plain view over the
// same atomics and attaching a registry adds names, not cost. Traffic
// is attributed per place by source (egress accounting), so the sum of
// PlaceStats over all places equals Stats: every message is attributed
// to exactly one place, its sender.
type PlaceMetricSource interface {
	// AttachMetrics registers the transport's traffic counters in r.
	AttachMetrics(r *obs.Registry)
	// PlaceStats returns the traffic sent by place p (zero Stats when
	// the transport does not carry p's egress, e.g. a remote endpoint).
	PlaceStats(p int) Stats
	// AttachPlaceMetrics registers place p's traffic counters in r under
	// the same canonical x10rt.* names used by AttachMetrics; per-place
	// registries deliberately use unqualified names so snapshots from
	// different places merge by name.
	AttachPlaceMetrics(p int, r *obs.Registry)
}

// BatchMsg is one message inside a pre-batched send. It carries
// everything Send takes except the places, which are per-batch: a batch
// travels one (src, dst) link, preserving per-link FIFO.
type BatchMsg struct {
	ID      HandlerID
	Payload any
	Bytes   int
	Class   Class
}

// BatchSender is implemented by transports that can ship many messages
// for the same (src, dst) link in a single wire operation. The
// BatchingTransport wrapper probes for it: a transport that implements
// SendBatch receives whole coalesced batches (one frame, one write, one
// compression decision); any other transport receives the equivalent
// sequence of Send calls. compressMin enables transparent compression
// of batch payloads at least that large (<= 0 disables it). Messages
// must be delivered in slice order.
//
// BatchSender stays outside Transport on purpose. Decorators embed the
// Transport they wrap, so a contract method would be promoted through
// chaos and counting, and a coalesced batch would then bypass their
// per-message fault decisions and per-link counts.
type BatchSender interface {
	SendBatch(src, dst int, msgs []BatchMsg, compressMin int) error
}

// counters accumulates traffic statistics with atomic updates. The cells
// are obs.Counters so a registry can adopt them by name; x10rt.Stats is
// then a compatibility view over the same registered metrics.
type counters struct {
	msgs  [numClasses]obs.Counter
	bytes [numClasses]obs.Counter
	wire  obs.Counter // on-the-wire bytes (post-batch, post-compression)
}

func (c *counters) add(class Class, bytes int) {
	c.msgs[class].Inc()
	c.bytes[class].Add(uint64(bytes))
}

// addWire records n bytes actually written to the wire. It is kept
// separate from add because a batched frame carries many messages but
// hits the wire once, at the sender only.
func (c *counters) addWire(n int) {
	c.wire.Add(uint64(n))
}

func (c *counters) snapshot() Stats {
	var s Stats
	for i := 0; i < int(numClasses); i++ {
		s.Messages[i] = c.msgs[i].Value()
		s.Bytes[i] = c.bytes[i].Value()
	}
	s.WireBytes = c.wire.Value()
	return s
}

// attach registers the class counters under the canonical names
// x10rt.msgs.<class> and x10rt.bytes.<class>, plus the on-the-wire byte
// counter under x10rt.bytes.wire.
func (c *counters) attach(r *obs.Registry) {
	for i := 0; i < int(numClasses); i++ {
		cls := Class(i).String()
		r.RegisterCounter("x10rt.msgs."+cls, &c.msgs[i])
		r.RegisterCounter("x10rt.bytes."+cls, &c.bytes[i])
	}
	r.RegisterCounter("x10rt.bytes.wire", &c.wire)
}

// handlerTable is a registration table shared by transport implementations.
type handlerTable struct {
	mu sync.RWMutex
	m  map[HandlerID]Handler
}

func newHandlerTable() *handlerTable {
	return &handlerTable{m: make(map[HandlerID]Handler)}
}

func (t *handlerTable) register(id HandlerID, h Handler) error {
	if h == nil {
		return fmt.Errorf("x10rt: nil handler for id %d", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.m[id]; dup {
		return fmt.Errorf("x10rt: handler %d already registered", id)
	}
	t.m[id] = h
	return nil
}

func (t *handlerTable) lookup(id HandlerID) (Handler, bool) {
	t.mu.RLock()
	h, ok := t.m[id]
	t.mu.RUnlock()
	return h, ok
}
