package x10rt

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apgas/internal/obs"
)

// wireEpoch anchors the ledger's monotonic nanosecond clock. Encode and
// decode timings are durations (differences of wireNow values), so the
// epoch itself never shows in any account.
var wireEpoch = time.Now()

// wireNow returns monotonic nanoseconds for serialization timing. Only
// called when a ledger is attached, so the disabled path never reads
// the clock.
func wireNow() int64 { return int64(time.Since(wireEpoch)) }

// This file is the wire observatory's accounting core: a message-level
// cost-attribution ledger that explains *which* handler's traffic costs
// what on *which* link. x10rt.Stats answers "how many bytes moved";
// the ledger answers the question the wire-codec work (ROADMAP item 1)
// actually needs: where encode/decode nanoseconds, post-batch wire
// bytes, batch queue wait, and compression wins concentrate, by
// (handler id) and by (src → dst) link.
//
// Overhead discipline matches the rest of the observability stack:
// every transport holds an atomic.Pointer[WireLedger] that is nil until
// a ledger is attached, so the disabled cost of every record site is
// one pointer load and branch, and zero allocations. All WireLedger
// methods are nil-receiver safe for the same reason.
//
// Attribution rules, chosen so the ledger stays sum-equal with the
// transport counters it refines:
//
//   - Sends are attributed to the sending place at the moment the
//     inner (wire-touching) transport accepts the message — exactly
//     beside the counters.add calls — so Σ per-handler payload bytes
//     equals Σ x10rt.bytes.<class> and Σ per-link wire bytes equals
//     x10rt.bytes.wire, by construction.
//   - Wire bytes, queue wait, and compression are per-link: a batch
//     frame carries many handlers but hits the wire once.
//   - Decode time is attributed to the receiving place (ingress), in
//     fields kept out of the egress sum-equality.
//   - Telemetry traffic (HandlerTelemetry) is never recorded, matching
//     countable().

// LedgerSink is the wire-ledger part of the Transport contract: an
// attached ledger receives the transport's traffic attribution.
// Decorators (counting, chaos) pass the attachment through to the layer
// that actually touches the wire; the BatchingTransport additionally
// records its own queue wait.
type LedgerSink interface {
	AttachWireLedger(lg *WireLedger)
}

// hkey identifies one handler's account at one place.
type hkey struct {
	place int
	id    HandlerID
}

// lkey identifies one directed link's account.
type lkey struct {
	src, dst int
}

// handlerAccount accumulates one (place, handler) cell. Egress fields
// (msgs, bytes, encNs) are attributed to the sending place; ingress
// fields (recvMsgs, decNs) to the receiving place.
type handlerAccount struct {
	msgs     obs.Counter // messages sent naming this handler
	bytes    obs.Counter // modeled payload bytes sent
	encNs    obs.Counter // cumulative serialization (encode) ns
	recvMsgs obs.Counter // messages received for this handler
	decNs    obs.Counter // cumulative deserialization (decode) ns
}

// linkAccount accumulates one (src → dst) cell.
type linkAccount struct {
	msgs    obs.Counter // messages sent on the link
	bytes   obs.Counter // modeled payload bytes sent on the link
	wire    obs.Counter // post-batch, post-compression frame bytes
	raw     obs.Counter // encoded batch bodies before compression
	comp    obs.Counter // the same bodies as shipped (== raw when not compressed)
	qwaitNs obs.Counter // batch queue wait (oldest message, per flush)
	batches obs.Counter // batch flushes on the link
}

// WireLedger attributes transport traffic to (handler, place) and
// (src → dst) accounts. Accounts are created lazily on first touch;
// the hot path reads copy-on-write maps through atomic pointers, so
// recording takes no locks after an account exists.
type WireLedger struct {
	places int
	reg    func(p int) *obs.Registry // per-place registry provider, may be nil

	handlers atomic.Pointer[map[hkey]*handlerAccount]
	links    atomic.Pointer[map[lkey]*linkAccount]
	mu       sync.Mutex // serializes account creation (copy-on-write)
}

// NewWireLedger creates a ledger for a mesh of places. reg, when
// non-nil, provides the per-place registry each new account registers
// its counters in, under the names x10rt.h<ID>.{msgs,bytes,enc_ns,
// recv,dec_ns} and x10rt.link.<src>-<dst>.{msgs,bytes,wire,raw,comp,
// qwait_ns,batches} — unqualified, like all per-place metrics, so the
// telemetry plane merges them by name across places.
func NewWireLedger(places int, reg func(p int) *obs.Registry) *WireLedger {
	return &WireLedger{places: places, reg: reg}
}

// NumPlaces returns the mesh size the ledger was created for.
func (lg *WireLedger) NumPlaces() int {
	if lg == nil {
		return 0
	}
	return lg.places
}

// HandlerName returns a stable short name for a handler id, used by
// the /wire report ("spawn", "finishctl", ..., "u<n>" for user ids).
func HandlerName(id HandlerID) string {
	switch id {
	case HandlerSpawn:
		return "spawn"
	case HandlerFinishCtl:
		return "finishctl"
	case HandlerClockCtl:
		return "clockctl"
	case HandlerTeamCtl:
		return "teamctl"
	case HandlerCopy:
		return "copy"
	case HandlerGUPS:
		return "gups"
	case HandlerTelemetry:
		return "telemetry"
	case HandlerOneSided:
		return "onesided"
	}
	if id >= UserHandlerBase {
		return fmt.Sprintf("u%d", uint32(id-UserHandlerBase))
	}
	return fmt.Sprintf("h%d", uint32(id))
}

// handler returns the (place, id) account, creating and registering it
// on first touch.
func (lg *WireLedger) handler(place int, id HandlerID) *handlerAccount {
	k := hkey{place, id}
	if m := lg.handlers.Load(); m != nil {
		if a, ok := (*m)[k]; ok {
			return a
		}
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	old := lg.handlers.Load()
	if old != nil {
		if a, ok := (*old)[k]; ok {
			return a
		}
	}
	next := make(map[hkey]*handlerAccount, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	a := &handlerAccount{}
	next[k] = a
	if lg.reg != nil {
		if r := lg.reg(place); r != nil {
			prefix := fmt.Sprintf("x10rt.h%d.", uint32(id))
			r.RegisterCounter(prefix+"msgs", &a.msgs)
			r.RegisterCounter(prefix+"bytes", &a.bytes)
			r.RegisterCounter(prefix+"enc_ns", &a.encNs)
			r.RegisterCounter(prefix+"recv", &a.recvMsgs)
			r.RegisterCounter(prefix+"dec_ns", &a.decNs)
		}
	}
	lg.handlers.Store(&next)
	return a
}

// link returns the (src, dst) account, creating and registering it on
// first touch. Link counters live in the *sender's* place registry:
// wire accounting is egress accounting, like PlaceStats.
func (lg *WireLedger) link(src, dst int) *linkAccount {
	k := lkey{src, dst}
	if m := lg.links.Load(); m != nil {
		if a, ok := (*m)[k]; ok {
			return a
		}
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	old := lg.links.Load()
	if old != nil {
		if a, ok := (*old)[k]; ok {
			return a
		}
	}
	next := make(map[lkey]*linkAccount, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	a := &linkAccount{}
	next[k] = a
	if lg.reg != nil {
		if r := lg.reg(src); r != nil {
			prefix := fmt.Sprintf("x10rt.link.%d-%d.", src, dst)
			r.RegisterCounter(prefix+"msgs", &a.msgs)
			r.RegisterCounter(prefix+"bytes", &a.bytes)
			r.RegisterCounter(prefix+"wire", &a.wire)
			r.RegisterCounter(prefix+"raw", &a.raw)
			r.RegisterCounter(prefix+"comp", &a.comp)
			r.RegisterCounter(prefix+"qwait_ns", &a.qwaitNs)
			r.RegisterCounter(prefix+"batches", &a.batches)
		}
	}
	lg.links.Store(&next)
	return a
}

// RecordSend attributes one sent message: handler (msgs, payload
// bytes) at the sending place and link (msgs, payload bytes). Called
// exactly where the wire-touching transport updates its class
// counters, so the ledger and x10rt.bytes.* stay sum-equal.
func (lg *WireLedger) RecordSend(src, dst int, id HandlerID, bytes int) {
	if lg == nil || !countable(id) {
		return
	}
	h := lg.handler(src, id)
	h.msgs.Inc()
	h.bytes.Add(uint64(bytes))
	l := lg.link(src, dst)
	l.msgs.Inc()
	l.bytes.Add(uint64(bytes))
}

// RecordWire attributes frame bytes actually written on the link,
// post-batch and post-compression — beside every counters.addWire.
func (lg *WireLedger) RecordWire(src, dst int, frameBytes int) {
	if lg == nil {
		return
	}
	lg.link(src, dst).wire.Add(uint64(frameBytes))
}

// RecordEncode attributes ns of serialization work for one message to
// its handler at the sending place.
func (lg *WireLedger) RecordEncode(src int, id HandlerID, ns int64) {
	if lg == nil || !countable(id) || ns < 0 {
		return
	}
	lg.handler(src, id).encNs.Add(uint64(ns))
}

// RecordRecv attributes one received message and its deserialization
// ns to the handler at the receiving place. Transports that do not
// deserialize pass ns == 0.
func (lg *WireLedger) RecordRecv(dst int, id HandlerID, ns int64) {
	if lg == nil || !countable(id) {
		return
	}
	a := lg.handler(dst, id)
	a.recvMsgs.Inc()
	if ns > 0 {
		a.decNs.Add(uint64(ns))
	}
}

// RecordBatchBody attributes one encoded batch body on the link: raw
// is the encoded size before compression, comp the size as shipped
// (equal to raw when compression was skipped or did not win). The
// link's compression ratio is raw/comp.
func (lg *WireLedger) RecordBatchBody(src, dst int, raw, comp int) {
	if lg == nil {
		return
	}
	l := lg.link(src, dst)
	l.raw.Add(uint64(raw))
	l.comp.Add(uint64(comp))
}

// RecordQueueWait attributes one batch flush on the link: ns is how
// long the oldest queued message waited. The mean wait per flush is
// qwait_ns / batches.
func (lg *WireLedger) RecordQueueWait(src, dst int, ns int64) {
	if lg == nil {
		return
	}
	l := lg.link(src, dst)
	l.batches.Inc()
	if ns > 0 {
		l.qwaitNs.Add(uint64(ns))
	}
}

// WireHandlerStat is one (place, handler) row of a ledger snapshot.
type WireHandlerStat struct {
	Place    int       `json:"place"`
	ID       HandlerID `json:"id"`
	Name     string    `json:"name"`
	Msgs     uint64    `json:"msgs"`
	Bytes    uint64    `json:"bytes"`
	EncNs    uint64    `json:"enc_ns"`
	RecvMsgs uint64    `json:"recv"`
	DecNs    uint64    `json:"dec_ns"`
}

// WireLinkStat is one (src → dst) row of a ledger snapshot.
type WireLinkStat struct {
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Msgs    uint64 `json:"msgs"`
	Bytes   uint64 `json:"bytes"`
	Wire    uint64 `json:"wire"`
	Raw     uint64 `json:"raw"`
	Comp    uint64 `json:"comp"`
	QwaitNs uint64 `json:"qwait_ns"`
	Batches uint64 `json:"batches"`
}

// WireSnapshot is a point-in-time copy of a ledger.
type WireSnapshot struct {
	Places   int               `json:"places"`
	Handlers []WireHandlerStat `json:"handlers"`
	Links    []WireLinkStat    `json:"links"`
}

// TotalPayloadBytes sums payload bytes over the handler rows; it must
// equal the transport's TotalBytes (Σ x10rt.bytes.<class>).
func (s WireSnapshot) TotalPayloadBytes() uint64 {
	var n uint64
	for _, h := range s.Handlers {
		n += h.Bytes
	}
	return n
}

// TotalWireBytes sums wire bytes over the link rows; it must equal the
// transport's Stats().WireBytes (x10rt.bytes.wire).
func (s WireSnapshot) TotalWireBytes() uint64 {
	var n uint64
	for _, l := range s.Links {
		n += l.Wire
	}
	return n
}

// Snapshot returns a deterministic (sorted) copy of every account.
func (lg *WireLedger) Snapshot() WireSnapshot {
	if lg == nil {
		return WireSnapshot{}
	}
	s := WireSnapshot{Places: lg.places}
	if m := lg.handlers.Load(); m != nil {
		for k, a := range *m {
			s.Handlers = append(s.Handlers, WireHandlerStat{
				Place:    k.place,
				ID:       k.id,
				Name:     HandlerName(k.id),
				Msgs:     a.msgs.Value(),
				Bytes:    a.bytes.Value(),
				EncNs:    a.encNs.Value(),
				RecvMsgs: a.recvMsgs.Value(),
				DecNs:    a.decNs.Value(),
			})
		}
	}
	if m := lg.links.Load(); m != nil {
		for k, a := range *m {
			s.Links = append(s.Links, WireLinkStat{
				Src:     k.src,
				Dst:     k.dst,
				Msgs:    a.msgs.Value(),
				Bytes:   a.bytes.Value(),
				Wire:    a.wire.Value(),
				Raw:     a.raw.Value(),
				Comp:    a.comp.Value(),
				QwaitNs: a.qwaitNs.Value(),
				Batches: a.batches.Value(),
			})
		}
	}
	sort.Slice(s.Handlers, func(i, j int) bool {
		if s.Handlers[i].Place != s.Handlers[j].Place {
			return s.Handlers[i].Place < s.Handlers[j].Place
		}
		return s.Handlers[i].ID < s.Handlers[j].ID
	})
	sort.Slice(s.Links, func(i, j int) bool {
		if s.Links[i].Src != s.Links[j].Src {
			return s.Links[i].Src < s.Links[j].Src
		}
		return s.Links[i].Dst < s.Links[j].Dst
	})
	return s
}
