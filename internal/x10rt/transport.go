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
//   - TCPTransport: a socket transport with one frame format per lane
//     (v4 codec frames for active messages, v5 for one-sided ops),
//     standing in for the PAMI/sockets backends of X10RT.
//
// Every implementation, concrete or decorator, provides the whole
// Transport contract: point-to-point active messages, the one-sided
// lane, place death, flushing, and the accounting and tracing
// attachments. Traffic is counted once, in the concrete transport's
// link table (see PlaceMetricSource); decorators only expose it.
// Collectives and the rest of the runtime are built above it, as the
// paper describes. The one optional capability is BatchSender, which
// only NewBatchingTransport probes for.
package x10rt

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

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
// Decorators (batching, chaos) embed the Transport they wrap
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

	// Stats returns the traffic sent through this transport: every
	// place's on an in-process transport, the endpoint's own egress on
	// a TCP endpoint. It always equals the sum of PlaceStats.
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
	// nDead counts the dead set. While it is zero — a healthy mesh —
	// the per-message liveness checks skip the lock, whose cache line
	// would otherwise bounce between an endpoint's sender and reader on
	// every message.
	nDead atomic.Int32
}

func (d *deathState) subscribe(fn func(dead, observer int)) {
	d.mu.Lock()
	d.fns = append(d.fns, fn)
	d.mu.Unlock()
}

func (d *deathState) isDead(p int) bool {
	if d.nDead.Load() == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead[p]
}

// deadEnd returns the dead endpoint of the (src, dst) link, or -1.
func (d *deathState) deadEnd(src, dst int) int {
	if d.nDead.Load() == 0 {
		return -1
	}
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
	d.nDead.Add(1)
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

// Stats is a snapshot of sent traffic, counted at the sender: one
// link's, one place's or a whole transport's.
type Stats struct {
	// Messages counts sent messages by class.
	Messages [3]uint64
	// Bytes counts modeled wire bytes by class.
	Bytes [3]uint64
	// WireBytes counts bytes actually put on the wire, measured after
	// batching and compression. Serializing transports (TCP) report
	// encoded frame bytes here, so WireBytes / TotalBytes is the
	// effective wire amplification (or, under compression and batching,
	// reduction). In-process transports do not serialize and report the
	// modeled byte count.
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

// Add returns s + t counter-wise; useful for summing places or links.
func (s Stats) Add(t Stats) Stats {
	for i := range s.Messages {
		s.Messages[i] += t.Messages[i]
		s.Bytes[i] += t.Bytes[i]
	}
	s.WireBytes += t.WireBytes
	return s
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
// A concrete transport keeps one always-on link table, a cell per
// (src, dst) link that the sender writes once per message, and Stats,
// every method here and the wire ledger's link rows are views of it:
// attaching a registry adds names, not cost. Each message is counted
// at its sender only (egress accounting), so the sum of PlaceStats
// over all places equals Stats by construction. Failed sends and
// telemetry traffic are counted nowhere.
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
	// Links returns a snapshot of the link table: per-link traffic and
	// the fan-in and degree views of its shape.
	Links() Links
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
// chaos, and a coalesced batch would then bypass its per-message fault
// decisions.
type BatchSender interface {
	SendBatch(src, dst int, msgs []BatchMsg, compressMin int) error
}

// linkCell is one directed link's traffic account: per-class messages
// and modeled bytes, plus the bytes put on the wire. Only the link's
// sender writes it, once per send, and it fills a cache line of its
// own, so senders on different links never share one.
type linkCell struct {
	msgs  [numClasses]atomic.Uint64
	bytes [numClasses]atomic.Uint64
	wire  atomic.Uint64
	_     [64 - (2*numClasses+1)*8]byte
}

// stats reads the cell; a nil cell reads zero.
func (c *linkCell) stats() Stats {
	var s Stats
	if c == nil {
		return s
	}
	for i := range s.Messages {
		s.Messages[i] = c.msgs[i].Load()
		s.Bytes[i] = c.bytes[i].Load()
	}
	s.WireBytes = c.wire.Load()
	return s
}

// linkTable is a concrete transport's one traffic account: a cell per
// (src, dst) link for every source place the transport sends from (all
// places in-process, its own place on a TCP endpoint). Transports embed
// it, so its PlaceMetricSource methods and Stats are theirs, and the
// wire ledger's link rows read it too.
type linkTable struct {
	places int
	first  int        // first source place carried
	cells  []linkCell // row-major by source place
}

func newLinkTable(places, first, rows int) *linkTable {
	return &linkTable{places: places, first: first, cells: make([]linkCell, rows*places)}
}

// add records msgs messages of one class, totalling bytes modeled bytes
// and wire bytes on the wire, sent on a link the caller has validated.
func (t *linkTable) add(src, dst int, class Class, msgs, bytes, wire uint64) {
	c := &t.cells[(src-t.first)*t.places+dst]
	c.msgs[class].Add(msgs)
	c.bytes[class].Add(bytes)
	c.wire.Add(wire)
}

// count records one sent message in the table and, when lg is
// attached, in the ledger: the one accounting call of every send site.
func (t *linkTable) count(lg *WireLedger, src, dst int, id HandlerID, class Class, bytes, wire int) {
	if countable(id) {
		t.add(src, dst, class, 1, uint64(bytes), uint64(wire))
		if lg != nil {
			lg.RecordSend(src, dst, id, bytes)
		}
	}
}

// row returns source place p's cells, indexed by destination; nil when
// the table does not carry p.
func (t *linkTable) row(p int) []linkCell {
	i := (p - t.first) * t.places
	if p < t.first || i >= len(t.cells) {
		return nil
	}
	return t.cells[i : i+t.places]
}

// Stats implements Transport: the traffic of every place the table
// carries.
func (t *linkTable) Stats() Stats { return sumCells(t.cells) }

// PlaceStats implements Transport: traffic sent by place p (zero when
// the table does not carry p).
func (t *linkTable) PlaceStats(p int) Stats { return sumCells(t.row(p)) }

// Links implements Transport.
func (t *linkTable) Links() Links {
	l := Links{Places: t.places, Cells: make([]Stats, t.places*t.places)}
	for i := range t.cells {
		l.Cells[t.first*t.places+i] = t.cells[i].stats()
	}
	return l
}

// AttachMetrics implements Transport: read-through views of the table
// become visible in r under x10rt.msgs.<class>, x10rt.bytes.<class>
// and x10rt.bytes.wire.
func (t *linkTable) AttachMetrics(r *obs.Registry) { attachCells(r, t.cells) }

// AttachPlaceMetrics implements Transport: the same names over place
// p's row.
func (t *linkTable) AttachPlaceMetrics(p int, r *obs.Registry) {
	if row := t.row(p); row != nil {
		attachCells(r, row)
	}
}

// sumCells adds up cells.
func sumCells(cells []linkCell) Stats {
	var s Stats
	for i := range cells {
		s = s.Add(cells[i].stats())
	}
	return s
}

// attachCells registers read-through sums of cells.
func attachCells(r *obs.Registry, cells []linkCell) {
	for i := 0; i < int(numClasses); i++ {
		cls := Class(i).String()
		r.RegisterCounterFunc("x10rt.msgs."+cls, func() uint64 { return sumCells(cells).Messages[i] })
		r.RegisterCounterFunc("x10rt.bytes."+cls, func() uint64 { return sumCells(cells).Bytes[i] })
	}
	r.RegisterCounterFunc("x10rt.bytes.wire", func() uint64 { return sumCells(cells).WireBytes })
}

// Links is a snapshot of a transport's link table: Cells[src*Places+dst]
// is the traffic src sent to dst. Rows a transport does not send from
// (a TCP endpoint's peers) are zero. The fan-in and degree views
// measure traffic shape, which §3.1's specialized finishes exist to
// change: the default finish "may flood the network interface" of its
// home.
type Links struct {
	Places int
	Cells  []Stats
}

// Link returns the traffic src sent to dst.
func (l Links) Link(src, dst int) Stats { return l.Cells[src*l.Places+dst] }

// FanIn returns, for class c, the number of other places that sent to
// dst and the messages they sent.
func (l Links) FanIn(dst int, c Class) (sources int, msgs uint64) {
	for src := 0; src < l.Places; src++ {
		if n := l.Link(src, dst).Messages[c]; n > 0 && src != dst {
			sources++
			msgs += n
		}
	}
	return sources, msgs
}

// MaxInDegree returns the largest number of other places any one place
// received class-c traffic from.
func (l Links) MaxInDegree(c Class) int {
	most := 0
	for dst := 0; dst < l.Places; dst++ {
		n, _ := l.FanIn(dst, c)
		most = max(most, n)
	}
	return most
}

// MaxOutDegree returns the largest number of other places any one place
// sent class-c traffic to.
func (l Links) MaxOutDegree(c Class) int {
	most := 0
	for src := 0; src < l.Places; src++ {
		n := 0
		for dst := 0; dst < l.Places; dst++ {
			if dst != src && l.Link(src, dst).Messages[c] > 0 {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}

// handlerTable is a registration table shared by transport
// implementations. Lookups, one per delivered message, read an
// immutable snapshot; register, called at setup, replaces it.
type handlerTable struct {
	mu sync.Mutex // serializes register
	m  atomic.Pointer[map[HandlerID]Handler]
}

func newHandlerTable() *handlerTable {
	t := &handlerTable{}
	t.m.Store(&map[HandlerID]Handler{})
	return t
}

func (t *handlerTable) register(id HandlerID, h Handler) error {
	if h == nil {
		return fmt.Errorf("x10rt: nil handler for id %d", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := maps.Clone(*t.m.Load())
	if _, dup := m[id]; dup {
		return fmt.Errorf("x10rt: handler %d already registered", id)
	}
	m[id] = h
	t.m.Store(&m)
	return nil
}

func (t *handlerTable) lookup(id HandlerID) (Handler, bool) {
	h, ok := (*t.m.Load())[id]
	return h, ok
}
