package x10rt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
)

// Frame v4: the codec batch, the only frame that carries active
// messages. It shares the outer header with the one-sided frame
// (frame.go) and carries, per frame, the connection's new type-table
// announcements followed by binary-encoded messages. A single Send is
// a batch of one; BatchingTransport coalesces many into one frame.
//
//	+-------+-----------+----------------------+---------+-----------+
//	| magic | version=4 | length (4 bytes, BE) | flags   | body      |
//	+-------+-----------+----------------------+---------+-----------+
//
//	body:
//	    [uvarint(hlc)]                          flags & codecFlagHLC
//	    section — raw, or uvarint(rawLen) | DEFLATE(raw)
//	                                            flags & batchFlagCompressed
//	raw section:
//	    uvarint(src)
//	    uvarint(nNew) | nNew × (uvarint(id) | uvarint(len) | name)
//	    uvarint(count) | count × record
//	record:
//	    uvarint(handlerID) | class byte | uvarint(modeledBytes)
//	    uvarint(typeRef) | uvarint(payloadLen) | payload
//
// typeRef 0 is the gob fallback: the payload is a self-contained gob
// encoding of a gobPayload box, so any gob-registered type still
// travels. It pays a fresh gob encoder per message, which is why
// RegisterWireType puts flat structs on the binary codec. typeRef >= 1
// indexes the connection's type table (typetable.go) and the payload
// is the named codec's raw little-endian encoding. rawLen is validated
// against MaxFrameSize before the decompressed body is allocated.
//
// The encoder emits scatter-gather segments (net.Buffers): payloads of
// at least codecZeroCopyMin bytes whose codec appends them verbatim
// ([]byte) are referenced, not copied, so a batched 1 MiB frame ships
// with writev instead of a staging copy. Compression forces a
// contiguous body and therefore disables the zero-copy cut.

const (
	// batchVersionCodec marks a codec batch frame.
	batchVersionCodec = 4
	// batchFlagCompressed marks a DEFLATE-compressed body.
	batchFlagCompressed = 0x01
	// codecFlagHLC marks a body with the sender's hybrid logical clock
	// prefix, set only while distributed tracing is enabled.
	codecFlagHLC = 0x02
	// maxBatchCount bounds the declared message count of a batch before
	// any decoding work is done. Batches are flushed well below this by
	// the byte and frame limits; a larger count is corruption.
	maxBatchCount = 1 << 20
	// codecZeroCopyMin is the payload size from which a []byte payload
	// is shipped by reference (writev) instead of copied into the
	// staging buffer.
	codecZeroCopyMin = 4 << 10
)

// bufPool recycles scratch buffers (gob fallback, compression) so the
// steady-state send path does not allocate per batch.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	// Oversized buffers (a 1 MiB payload passed through) are dropped
	// rather than pinned in the pool forever.
	if b.Cap() <= 1<<20 {
		bufPool.Put(b)
	}
}

// framePool recycles encoded-frame byte slices. It pools *[]byte (not
// bytes.Buffer) because frames are built with append: the grown slice
// is stored back, so steady-state encoding reuses one array per P.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) <= 1<<20 {
		framePool.Put(b)
	}
}

// flateWriterPool recycles DEFLATE compressors, whose construction cost
// (window allocation) dwarfs small-batch compression itself.
var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// gobPayload boxes a fallback payload so the gob stream is
// self-contained per message (types the codec does not know still
// need gob's type descriptors).
type gobPayload struct{ V any }

// codecCut records a zero-copy payload's insertion point: the payload
// bytes belong between staging offset off and off of the next cut.
type codecCut struct {
	off  int
	data []byte
}

// appendCodecBatchFrame encodes msgs as one v4 frame. The frame's
// contiguous parts are built in the pooled buffer behind stage (whose
// slice is updated in place so growth stays pooled); the returned
// net.Buffers references that buffer and (for zero-copy payloads) the
// callers' payload slices, in wire order. wireLen is the total frame
// length. The segments are valid until stage is reused — callers write
// them out before returning the buffer to the pool.
func appendCodecBatchFrame(stage *[]byte, src, dstPlace int, msgs []BatchMsg, compressMin int,
	hlc uint64, hlcOn bool, tt *typeTableSender, lg *WireLedger) (segs net.Buffers, wireLen int, err error) {

	// Two passes: pass 1 resolves codecs and collects this frame's new
	// type-table announcements (the type section precedes the records
	// section, so announcements cannot be interleaved with records);
	// pass 2 writes both sections into stage, recording zero-copy cuts.
	// Zero copy is off when compression may engage: a compressed body
	// must be contiguous.
	var cuts []codecCut
	allowCuts := compressMin <= 0
	var gobScratch *bytes.Buffer

	type resolved struct {
		codec *WireCodec
		ref   uint32
	}
	res := make([]resolved, len(msgs))
	var newNames []string
	var newIDs []uint32
	for i := range msgs {
		if c := lookupWireCodec(msgs[i].Payload); c != nil {
			id, isNew := tt.assign(c.Name)
			if isNew {
				newNames = append(newNames, c.Name)
				newIDs = append(newIDs, id)
			}
			res[i] = resolved{codec: c, ref: id}
		}
	}

	raw := (*stage)[:0]
	raw = appendUvarint(raw, uint64(src))
	raw = appendUvarint(raw, uint64(len(newNames)))
	for i, name := range newNames {
		raw = appendUvarint(raw, uint64(newIDs[i]))
		raw = appendUvarint(raw, uint64(len(name)))
		raw = append(raw, name...)
	}
	raw = appendUvarint(raw, uint64(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		var t0 int64
		if lg != nil {
			t0 = wireNow()
		}
		raw = appendUvarint(raw, uint64(m.ID))
		raw = append(raw, byte(m.Class))
		raw = appendUvarint(raw, uint64(m.Bytes))
		if r := res[i]; r.codec != nil {
			raw = appendUvarint(raw, uint64(r.ref))
			if b, ok := m.Payload.([]byte); ok && allowCuts && len(b) >= codecZeroCopyMin {
				// Zero-copy cut: length prefix in the staging buffer,
				// payload shipped by reference.
				raw = appendUvarint(raw, uint64(len(b)))
				cuts = append(cuts, codecCut{off: len(raw), data: b})
			} else {
				lenAt := len(raw)
				raw = append(raw, 0, 0, 0, 0, 0) // max uvarint32 placeholder
				before := len(raw)
				raw, err = r.codec.Encode(raw, m.Payload)
				if err != nil {
					return nil, 0, fmt.Errorf("x10rt: codec %s: %w", r.codec.Name, err)
				}
				plen := len(raw) - before
				// Rewrite the placeholder with the actual uvarint and
				// close the gap.
				var vb [binary.MaxVarintLen64]byte
				vn := binary.PutUvarint(vb[:], uint64(plen))
				copy(raw[lenAt:], vb[:vn])
				copy(raw[lenAt+vn:], raw[before:])
				raw = raw[:lenAt+vn+plen]
			}
		} else {
			raw = appendUvarint(raw, 0)
			if gobScratch == nil {
				gobScratch = getBuf()
				defer putBuf(gobScratch)
			}
			gobScratch.Reset()
			if err := gob.NewEncoder(gobScratch).Encode(&gobPayload{V: m.Payload}); err != nil {
				return nil, 0, fmt.Errorf("x10rt: codec gob fallback: %w", err)
			}
			raw = appendUvarint(raw, uint64(gobScratch.Len()))
			raw = append(raw, gobScratch.Bytes()...)
		}
		if lg != nil {
			lg.RecordEncode(src, m.ID, wireNow()-t0)
		}
	}

	rawLen := len(raw)
	for _, c := range cuts {
		rawLen += len(c.data)
	}

	flags := byte(0)
	if hlcOn {
		flags |= codecFlagHLC
	}
	body := raw
	if compressMin > 0 && rawLen >= compressMin {
		// cuts are empty on this path (allowCuts was false).
		comp := getBuf()
		defer putBuf(comp)
		var vb [binary.MaxVarintLen64]byte
		comp.Write(vb[:binary.PutUvarint(vb[:], uint64(len(raw)))])
		fw := flateWriterPool.Get().(*flate.Writer)
		fw.Reset(comp)
		_, werr := fw.Write(raw)
		cerr := fw.Close()
		flateWriterPool.Put(fw)
		if werr == nil && cerr == nil && comp.Len() < len(raw) {
			flags |= batchFlagCompressed
			// Assemble into the tail of the staging array, past raw, so
			// the compressed copy does not clobber its own source.
			body = append(raw[len(raw):], comp.Bytes()...)
		}
	}
	if lg != nil {
		bodyLen := len(body)
		if flags&batchFlagCompressed == 0 {
			bodyLen = rawLen
		}
		lg.RecordBatchBody(src, dstPlace, rawLen, bodyLen)
	}

	// Assemble the frame prefix: outer header, flags, optional HLC.
	var prefix [frameHeaderSize + 1 + binary.MaxVarintLen64]byte
	p := prefix[:0]
	p = append(p, frameMagic, batchVersionCodec, 0, 0, 0, 0)
	p = append(p, flags)
	if hlcOn {
		p = appendUvarint(p, hlc)
	}
	payloadLen := len(p) - frameHeaderSize + len(body)
	if flags&batchFlagCompressed == 0 {
		payloadLen = len(p) - frameHeaderSize + rawLen
	}
	if payloadLen > MaxFrameSize {
		return nil, 0, fmt.Errorf("%w: codec batch payload %d exceeds max %d",
			ErrFrameCorrupt, payloadLen, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(p[2:6], uint32(payloadLen))

	// The prefix lives on this stack frame; it must escape into the
	// returned segments, so copy it once (13 bytes max). The body stays
	// in the staging buffer — writev makes the multi-segment frame one
	// syscall with no coalescing copy.
	head := make([]byte, len(p))
	copy(head, p)
	*stage = raw[:0] // keep any growth pooled

	segs = append(segs, head)
	if flags&batchFlagCompressed != 0 || len(cuts) == 0 {
		segs = append(segs, body)
	} else {
		prev := 0
		for _, c := range cuts {
			segs = append(segs, body[prev:c.off], c.data)
			prev = c.off
		}
		if prev < len(body) {
			segs = append(segs, body[prev:])
		}
	}
	return segs, frameHeaderSize + payloadLen, nil
}

// decodeCodecBatchPayloadLG decodes a v4 frame payload (flags byte
// included) against the connection's receive-side type table. Gob
// reports some malformed inputs by panicking; the recover converts any
// such panic into an error so a corrupt peer costs only its own
// connection. Returned []byte payloads may alias payload.
func decodeCodecBatchPayloadLG(payload []byte, tt *typeTableReceiver, lg *WireLedger, place int) (msgs []wireMsg, hlc uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			msgs, err = nil, fmt.Errorf("x10rt: codec batch decode panic: %v", r)
		}
	}()
	if len(payload) < 1 {
		return nil, 0, fmt.Errorf("%w: empty codec batch payload", ErrFrameCorrupt)
	}
	flags, body := payload[0], payload[1:]
	if flags&^byte(batchFlagCompressed|codecFlagHLC) != 0 {
		return nil, 0, fmt.Errorf("%w: unknown codec batch flags 0x%02x", ErrFrameCorrupt, flags)
	}
	if flags&codecFlagHLC != 0 {
		var n int
		hlc, n = binary.Uvarint(body)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: bad codec batch HLC", ErrFrameCorrupt)
		}
		body = body[n:]
	}
	if flags&batchFlagCompressed != 0 {
		rawLen, n := binary.Uvarint(body)
		if n <= 0 || rawLen == 0 || rawLen > MaxFrameSize {
			return nil, 0, fmt.Errorf("%w: bad compressed codec batch length", ErrFrameCorrupt)
		}
		fr := flate.NewReader(bytes.NewReader(body[n:]))
		buf := bytes.NewBuffer(make([]byte, 0, rawLen))
		if _, err := io.Copy(buf, io.LimitReader(fr, int64(rawLen)+1)); err != nil {
			return nil, 0, fmt.Errorf("%w: codec batch inflate: %v", ErrFrameCorrupt, err)
		}
		if uint64(buf.Len()) != rawLen {
			return nil, 0, fmt.Errorf("%w: codec batch inflated to %d, declared %d",
				ErrFrameCorrupt, buf.Len(), rawLen)
		}
		body = buf.Bytes()
	}

	src64, n := binary.Uvarint(body)
	if n <= 0 || src64 > 1<<24 {
		return nil, 0, fmt.Errorf("%w: bad codec batch src", ErrFrameCorrupt)
	}
	body = body[n:]
	src := int(src64)

	nNew, n := binary.Uvarint(body)
	if n <= 0 || nNew > maxTypeTableEntries {
		return nil, 0, fmt.Errorf("%w: bad type table count", ErrFrameCorrupt)
	}
	body = body[n:]
	for i := uint64(0); i < nNew; i++ {
		id, c := binary.Uvarint(body)
		if c <= 0 || id > maxTypeTableEntries {
			return nil, 0, fmt.Errorf("%w: bad type table id", ErrFrameCorrupt)
		}
		body = body[c:]
		nameLen, c := binary.Uvarint(body)
		if c <= 0 || nameLen > maxTypeNameLen || nameLen > uint64(len(body)-c) {
			return nil, 0, fmt.Errorf("%w: bad type name length", ErrFrameCorrupt)
		}
		name := string(body[c : c+int(nameLen)])
		body = body[c+int(nameLen):]
		if err := tt.bind(uint32(id), name); err != nil {
			return nil, 0, err
		}
	}

	count, n := binary.Uvarint(body)
	if n <= 0 || count == 0 || count > maxBatchCount || count > uint64(len(body)) {
		return nil, 0, fmt.Errorf("%w: bad codec batch count", ErrFrameCorrupt)
	}
	body = body[n:]
	msgs = make([]wireMsg, 0, count)
	for i := uint64(0); i < count; i++ {
		var t0 int64
		if lg != nil {
			t0 = wireNow()
		}
		id64, c := binary.Uvarint(body)
		if c <= 0 || id64 > uint64(^HandlerID(0)>>1) {
			return nil, 0, fmt.Errorf("%w: record %d handler id", ErrFrameCorrupt, i)
		}
		body = body[c:]
		if len(body) < 1 {
			return nil, 0, fmt.Errorf("%w: record %d truncated class", ErrFrameCorrupt, i)
		}
		class := Class(body[0])
		if class >= numClasses {
			return nil, 0, fmt.Errorf("%w: record %d class %d", ErrFrameCorrupt, i, class)
		}
		body = body[1:]
		mb, c := binary.Uvarint(body)
		if c <= 0 || mb > MaxFrameSize {
			return nil, 0, fmt.Errorf("%w: record %d modeled bytes", ErrFrameCorrupt, i)
		}
		body = body[c:]
		ref, c := binary.Uvarint(body)
		if c <= 0 || ref > maxTypeTableEntries {
			return nil, 0, fmt.Errorf("%w: record %d type ref", ErrFrameCorrupt, i)
		}
		body = body[c:]
		plen, c := binary.Uvarint(body)
		if c <= 0 || plen > uint64(len(body)-c) {
			return nil, 0, fmt.Errorf("%w: record %d payload length", ErrFrameCorrupt, i)
		}
		pbytes := body[c : c+int(plen)]
		body = body[c+int(plen):]

		var v any
		if ref == 0 {
			var box gobPayload
			if err := gob.NewDecoder(bytes.NewReader(pbytes)).Decode(&box); err != nil {
				return nil, 0, fmt.Errorf("x10rt: codec batch record %d gob: %w", i, err)
			}
			v = box.V
		} else {
			codec, err := tt.codec(uint32(ref))
			if err != nil {
				return nil, 0, err
			}
			var derr error
			v, derr = codec.Decode(pbytes)
			if derr != nil {
				return nil, 0, fmt.Errorf("x10rt: codec batch record %d (%s): %w", i, codec.Name, derr)
			}
		}
		m := wireMsg{Src: src, ID: HandlerID(id64), Class: class, Bytes: int(mb), Payload: v}
		if lg != nil {
			lg.RecordRecv(place, m.ID, wireNow()-t0)
		}
		msgs = append(msgs, m)
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing codec batch bytes", ErrFrameCorrupt, len(body))
	}
	return msgs, hlc, nil
}
