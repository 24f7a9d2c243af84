package x10rt

import (
	"bytes"
	"io"
	"testing"
)

// FuzzBatchFrameRoundTrip fuzzes the frame reader with arbitrary
// streams: whatever header parses is a v4 or v5 frame within
// MaxFrameSize, and its payload must decode — as a v4 batch or a v5
// one-sided op header — without panicking.
func FuzzBatchFrameRoundTrip(f *testing.F) {
	msgs := []BatchMsg{{ID: UserHandlerBase, Payload: wirePayload{Value: 7}, Bytes: 8, Class: DataClass}}
	frame := fuzzCodecSeedFrame(f, msgs, 0, 0, false)
	f.Add(frame)
	f.Add(fuzzCodecSeedFrame(f, msgs, 0, 5, true))
	f.Add([]byte{frameMagic, batchVersionCodec, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		version, n, err := readFrameHeader(r)
		if err != nil {
			return
		}
		if n > MaxFrameSize {
			t.Fatalf("payload %d exceeds MaxFrameSize", n)
		}
		if n > r.Len() {
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatal(err)
		}
		switch version {
		case batchVersionCodec:
			_, _, _ = decodeCodecBatchPayloadLG(payload, &typeTableReceiver{}, nil, 1)
		case frameVersionOneSided:
			cr := &countingReader{r: bytes.NewReader(payload)}
			_, _, _, _ = parseOneSidedHeader(cr, len(payload))
		default:
			t.Fatalf("accepted unknown version %d", version)
		}
	})
}

// FuzzDecodeFrame throws arbitrary bytes at the reader of one frame —
// the shape a single Send writes — and, when the header parses, at the
// decoder of its payload. Neither layer may panic or over-allocate:
// the header is validated before any allocation, consumes exactly
// frameHeaderSize bytes, and names a v4 or v5 frame; a v4 payload that
// decodes carries 1..maxBatchCount messages from one source place.
// Bytes after the first frame are left for the next read. The committed
// corpus under testdata/fuzz seeds the interesting shapes (valid frame,
// truncations, corrupt magic, retired version, oversized length).
func FuzzDecodeFrame(f *testing.F) {
	valid := fuzzCodecSeedFrame(f, []BatchMsg{
		{ID: UserHandlerBase, Payload: wirePayload{Value: 42}, Bytes: 24, Class: ControlClass},
	}, 0, 0, false)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                                          // truncated payload
	f.Add([]byte{})                                                      // empty
	f.Add([]byte{frameMagic, batchVersionCodec, 0, 0, 0, 0})             // empty payload
	f.Add([]byte{frameMagic, 1, 0, 0, 0, 1, 0xff})                       // retired gob version
	f.Add([]byte{0x00, batchVersionCodec, 0, 0, 0, 0})                   // bad magic
	f.Add([]byte{frameMagic, batchVersionCodec, 0xff, 0xff, 0xff, 0xff}) // huge length
	f.Add(append(append([]byte{}, valid...), valid...))                  // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		version, n, err := readFrameHeader(r)
		if err != nil {
			return
		}
		if version != batchVersionCodec && version != frameVersionOneSided {
			t.Fatalf("accepted version %d", version)
		}
		if n > MaxFrameSize {
			t.Fatalf("payload %d exceeds MaxFrameSize", n)
		}
		if r.Len() != len(data)-frameHeaderSize {
			t.Fatalf("header consumed %d bytes, want %d", len(data)-r.Len(), frameHeaderSize)
		}
		if n > r.Len() {
			return // truncated frame: the reader blocks, then sees EOF
		}
		payload := data[frameHeaderSize : frameHeaderSize+n]
		if version == frameVersionOneSided {
			cr := &countingReader{r: bytes.NewReader(payload)}
			_, _, _, _ = parseOneSidedHeader(cr, len(payload))
			return
		}
		msgs, _, err := decodeCodecBatchPayloadLG(payload, &typeTableReceiver{}, nil, 1)
		if err != nil {
			return
		}
		if len(msgs) == 0 || len(msgs) > maxBatchCount {
			t.Fatalf("decoded %d messages", len(msgs))
		}
		for _, m := range msgs {
			if m.Src != msgs[0].Src {
				t.Fatalf("one frame decoded sources %d and %d", msgs[0].Src, m.Src)
			}
		}
	})
}

// FuzzFrameRoundTrip checks that any byte payload framed as a single
// record — raw and compressed — comes back intact, with its header
// fields, through the frame reader and the v4 decoder.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{frameMagic}, 64))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, compressMin := range []int{0, 1} {
			msgs := []BatchMsg{{ID: UserHandlerBase, Payload: payload, Bytes: len(payload), Class: DataClass}}
			frame := encodeV4(t, &typeTableSender{}, 3, msgs, compressMin, 0, false)
			version, n, err := readFrameHeader(bytes.NewReader(frame))
			if err != nil || version != batchVersionCodec || n != len(frame)-frameHeaderSize {
				t.Fatalf("header: version=%d n=%d frame=%dB err=%v", version, n, len(frame), err)
			}
			got, _ := decodeV4(t, &typeTableReceiver{}, frame)
			if len(got) != 1 {
				t.Fatalf("decoded %d messages, want 1", len(got))
			}
			m := got[0]
			b, ok := m.Payload.([]byte)
			if !ok || !bytes.Equal(b, payload) || m.Src != 3 || m.ID != UserHandlerBase ||
				m.Bytes != len(payload) || m.Class != DataClass {
				t.Fatalf("compressMin=%d roundtrip: got %+v", compressMin, m)
			}
		}
	})
}
