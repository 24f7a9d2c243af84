package x10rt

import (
	"bytes"
	"io"
	"testing"
)

// Fuzz targets for the v4 frame: the connection's frame stream and the
// type-table handshake. Both must never panic on arbitrary bytes — a
// hostile or corrupt peer costs at most its own connection — and the
// handshake must either advance the receiver's table consistently or
// kill the connection with an error, never desynchronize it. The
// committed corpora under testdata/fuzz seed the hostile shapes: bad
// magic, retired or unknown versions, huge lengths, truncated and torn
// frames, torn type tables, unknown and oversized codec names,
// out-of-range type refs, compressed garbage, gob garbage behind
// typeRef 0.

// fuzzCodecSeedFrame renders msgs as one full v4 frame (header
// included) through a fresh sender table.
func fuzzCodecSeedFrame(f *testing.F, msgs []BatchMsg, compressMin int, hlc uint64, hlcOn bool) []byte {
	f.Helper()
	stage := make([]byte, 0, 1024)
	segs, _, err := appendCodecBatchFrame(&stage, 0, 1, msgs, compressMin, hlc, hlcOn, &typeTableSender{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	var frame []byte
	for _, s := range segs {
		frame = append(frame, s...)
	}
	return frame
}

// FuzzCodecDecode throws arbitrary byte streams at the receive path of
// one connection: frame headers are validated as TCPTransport.read
// validates them, and v4 payloads decode against one receiver table
// shared by the stream's frames. The first bad frame ends the stream,
// as it tears a real connection down. Every declared length must be
// validated before allocation and gob panics must be converted to
// errors.
func FuzzCodecDecode(f *testing.F) {
	big := make([]byte, codecZeroCopyMin+512) // spans the zero-copy cut
	for i := range big {
		big[i] = byte(i)
	}
	mixed := []BatchMsg{
		{ID: UserHandlerBase, Payload: uint64(42), Bytes: 8, Class: DataClass},
		{ID: UserHandlerBase + 1, Payload: big, Bytes: len(big), Class: DataClass},
		{ID: HandlerFinishCtl, Payload: wirePayload{Value: 7, Tag: "t"}, Bytes: 16, Class: ControlClass},
		{ID: UserHandlerBase + 2, Payload: []float64{1.5, -2.5}, Bytes: 16, Class: DataClass},
	}
	f.Add(fuzzCodecSeedFrame(f, mixed, 0, 0, false))
	f.Add(fuzzCodecSeedFrame(f, mixed, 1, 99, true)) // compressed + HLC prefix
	valid := fuzzCodecSeedFrame(f, mixed, 0, 0, false)
	f.Add(valid[:len(valid)-5]) // truncated raw frame
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		ttr := &typeTableReceiver{}
		for {
			version, n, err := readFrameHeader(r)
			if err != nil {
				return
			}
			if version != batchVersionCodec && version != frameVersionOneSided {
				t.Fatalf("accepted version %d", version)
			}
			if n > MaxFrameSize {
				t.Fatalf("length %d exceeds MaxFrameSize", n)
			}
			if n > r.Len() {
				return // truncated frame: the reader blocks, then sees EOF
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(r, payload); err != nil {
				t.Fatalf("read %d of %d buffered bytes: %v", n, r.Len(), err)
			}
			if version != batchVersionCodec {
				return // v5 frames are FuzzBatchFrameRoundTrip's
			}
			msgs, _, err := decodeCodecBatchPayloadLG(payload, ttr, nil, 1)
			if err != nil {
				return
			}
			if len(msgs) == 0 {
				t.Fatal("decode succeeded with zero messages")
			}
			if len(msgs) > maxBatchCount {
				t.Fatalf("decoded %d messages, beyond maxBatchCount", len(msgs))
			}
		}
	})
}

// FuzzDecodeBatch throws arbitrary bytes at the v4 payload decoder
// (flags byte, optional HLC prefix, optional DEFLATE envelope, type
// table, records) with a fresh receiver table, as frame 1 of a new
// connection meets it. The decoder must never panic — gob's panics are
// converted to errors — and must validate every declared length before
// allocating, so a hostile peer can cost at most its own connection.
// Inputs are frame payloads; the committed corpus under testdata/fuzz
// seeds a torn batch, a zero-record batch, undefined flag bits, an
// oversized length prefix, and garbage behind the compressed flag.
func FuzzDecodeBatch(f *testing.F) {
	msgs := []BatchMsg{
		{ID: UserHandlerBase, Payload: wirePayload{Value: 1, Tag: "a"}, Bytes: 16, Class: ControlClass},
		{ID: HandlerFinishCtl, Payload: wirePayload{Value: 2, Tag: "b"}, Bytes: 24, Class: DataClass},
	}
	raw := fuzzCodecSeedFrame(f, msgs, 0, 0, false)[frameHeaderSize:]
	f.Add(raw)
	f.Add(fuzzCodecSeedFrame(f, msgs, 1, 0, false)[frameHeaderSize:]) // compressed
	f.Add(raw[:len(raw)-5])                                           // torn batch
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})                             // zero-record batch
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})           // oversized length prefix
	f.Add(append([]byte{0x01, 0x40}, []byte("deflate? no")...))       // compressed-bit garbage
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		decoded, _, err := decodeCodecBatchPayloadLG(payload, &typeTableReceiver{}, nil, 1)
		if err != nil {
			return
		}
		if len(decoded) == 0 {
			t.Fatal("decode succeeded with zero messages")
		}
		if len(decoded) > maxBatchCount {
			t.Fatalf("decoded %d messages, beyond maxBatchCount", len(decoded))
		}
	})
}

// FuzzTypeTableHandshake fuzzes the handshake riding frame 1 of a
// connection, then pins the table-consistency invariant: if frame 1
// decodes, a well-formed follow-up frame from a sender aligned with the
// surviving table must round-trip; if frame 1 errors, the connection is
// torn down and no table state leaks. Dense-id violations (torn or
// replayed announcements), unknown codec names, and oversized tables
// must all surface as errors. Inputs are frame payloads (flags byte
// onward).
func FuzzTypeTableHandshake(f *testing.F) {
	// A valid handshake: announces uint64 as id 1 and uses it.
	f.Add(fuzzCodecSeedFrame(f, []BatchMsg{
		{ID: UserHandlerBase, Payload: uint64(1), Bytes: 8, Class: DataClass},
	}, 0, 0, false)[frameHeaderSize:])
	// flags=0, src=0, then: torn table (first announcement claims id 2).
	f.Add([]byte{0x00, 0x00, 0x01, 0x02, 0x06, 'u', 'i', 'n', 't', '6', '4', 0x01})
	// Replayed announcement: id 1 bound twice.
	f.Add([]byte{0x00, 0x00, 0x02,
		0x01, 0x06, 'u', 'i', 'n', 't', '6', '4',
		0x01, 0x06, 'u', 'i', 'n', 't', '6', '4', 0x01})
	// Unknown codec name.
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0x03, 'z', 'z', 'z', 0x01})
	// Oversized name length (513 > maxTypeNameLen).
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0x81, 0x04})
	// Oversized table (declared 16383 announcements > maxTypeTableEntries).
	f.Add([]byte{0x00, 0x00, 0xff, 0x7f})
	// Out-of-range type ref: empty table, record references id 5.
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x05, 0x00})

	f.Fuzz(func(t *testing.T, payload []byte) {
		ttr := &typeTableReceiver{}
		_, _, err := decodeCodecBatchPayloadLG(payload, ttr, nil, 1)
		if err != nil {
			return // connection torn down; no follow-up frames arrive
		}
		if len(ttr.codecs)+1 > maxTypeTableEntries {
			return // table legitimately full; the next announcement must fail
		}
		// Frame 2: the sender's next dense id continues from wherever the
		// fuzzed handshake left the receiver.
		tts := &typeTableSender{next: uint32(len(ttr.codecs))}
		msgs := []BatchMsg{{ID: UserHandlerBase, Payload: uint64(0xd00d), Bytes: 8, Class: DataClass}}
		stage := make([]byte, 0, 256)
		segs, _, err := appendCodecBatchFrame(&stage, 0, 1, msgs, 0, 0, false, tts, nil)
		if err != nil {
			t.Fatalf("post-handshake encode: %v", err)
		}
		var frame []byte
		for _, s := range segs {
			frame = append(frame, s...)
		}
		got, _, err := decodeCodecBatchPayloadLG(frame[frameHeaderSize:], ttr, nil, 1)
		if err != nil {
			t.Fatalf("handshake desynchronized the table: %v", err)
		}
		if len(got) != 1 || got[0].Payload != uint64(0xd00d) {
			t.Fatalf("post-handshake frame decoded to %#v", got)
		}
	})
}
