package x10rt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Differential codec battery: every payload the generator produces must
// round-trip through the v4 frame to the same value a self-contained gob
// encoding of it yields — the codec is an encoding change, never a
// semantic one, and gob is the oracle.

// diffGobOnly has no registered codec: it exercises the typeRef-0 gob
// fallback inside v4 frames.
type diffGobOnly struct {
	A string
	B []int
	C map[string]int
}

// diffBin travels via a RegisterBinaryStruct reflection plan.
type diffBin struct {
	X    uint64
	Name string
	Vals []float64
	On   bool
}

func init() {
	gob.Register(diffGobOnly{})
	gob.Register(diffBin{})
	if err := RegisterBinaryStruct(diffBin{}); err != nil {
		panic(err)
	}
}

// genPayload draws one payload from the registered-codec shapes (scalars,
// []byte across the zero-copy threshold, fixed-width slices, a binary
// struct) plus the gob-only fallback shape.
func genPayload(rng *rand.Rand) any {
	switch rng.Intn(12) {
	case 0:
		n := 1 + rng.Intn(2*codecZeroCopyMin) // spans the zero-copy cut threshold
		b := make([]byte, n)
		rng.Read(b)
		return b
	case 1:
		return fmt.Sprintf("s-%x", rng.Uint64())
	case 2:
		return rng.Intn(2) == 0
	case 3:
		return int(rng.Int63()) - math.MaxInt32
	case 4:
		return int32(rng.Uint32())
	case 5:
		return int64(rng.Uint64())
	case 6:
		return rng.Uint64()
	case 7:
		return math.Float64frombits(0x3ff0000000000000 | rng.Uint64()>>12)
	case 8:
		s := make([]uint64, 1+rng.Intn(64))
		for i := range s {
			s[i] = rng.Uint64()
		}
		return s
	case 9:
		s := make([]float64, 1+rng.Intn(64))
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	case 10:
		var vals []float64 // an empty slice decodes as nil, as under gob
		for k := rng.Intn(3); k > 0; k-- {
			vals = append(vals, rng.NormFloat64())
		}
		return diffBin{
			X:    rng.Uint64(),
			Name: fmt.Sprintf("bin-%d", rng.Intn(1000)),
			Vals: vals,
			On:   rng.Intn(2) == 0,
		}
	default:
		return diffGobOnly{
			A: fmt.Sprintf("gob-%d", rng.Intn(1000)),
			B: []int{rng.Int(), rng.Int()},
			C: map[string]int{"k": rng.Intn(100)},
		}
	}
}

// encodeV4 renders msgs (sent by src) as one v4 frame and returns the
// full frame bytes.
func encodeV4(t *testing.T, tt *typeTableSender, src int, msgs []BatchMsg, compressMin int, hlc uint64, hlcOn bool) []byte {
	t.Helper()
	stage := make([]byte, 0, 1024)
	segs, wireLen, err := appendCodecBatchFrame(&stage, src, 1, msgs, compressMin, hlc, hlcOn, tt, nil)
	if err != nil {
		t.Fatalf("appendCodecBatchFrame: %v", err)
	}
	var frame []byte
	for _, s := range segs {
		frame = append(frame, s...)
	}
	if len(frame) != wireLen {
		t.Fatalf("wireLen = %d, frame = %d bytes", wireLen, len(frame))
	}
	return frame
}

// decodeV4 parses a full v4 frame (header included).
func decodeV4(t *testing.T, ttr *typeTableReceiver, frame []byte) ([]wireMsg, uint64) {
	t.Helper()
	if len(frame) < frameHeaderSize || frame[0] != frameMagic || frame[1] != batchVersionCodec {
		t.Fatalf("bad v4 frame header % x", frame[:frameHeaderSize])
	}
	msgs, hlc, err := decodeCodecBatchPayloadLG(frame[frameHeaderSize:], ttr, nil, 1)
	if err != nil {
		t.Fatalf("decodeCodecBatchPayloadLG: %v", err)
	}
	return msgs, hlc
}

// gobRoundTrip is the oracle: v through one self-contained gob
// encoding, boxed so interface payloads keep their concrete type.
func gobRoundTrip(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&gobPayload{V: v}); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	var box gobPayload
	if err := gob.NewDecoder(&buf).Decode(&box); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	return box.V
}

// TestCodecDifferential: randomized batches through the v4 frame must
// decode value-for-value identical to the gob oracle.
func TestCodecDifferential(t *testing.T) {
	const rounds = 200
	rng := rand.New(rand.NewSource(0x10c0dec))
	tts := &typeTableSender{}
	ttr := &typeTableReceiver{}
	for round := 0; round < rounds; round++ {
		n := 1 + rng.Intn(8)
		msgs := make([]BatchMsg, n)
		for i := range msgs {
			msgs[i] = BatchMsg{
				ID:      UserHandlerBase + HandlerID(rng.Intn(16)),
				Payload: genPayload(rng),
				Bytes:   rng.Intn(512),
				Class:   Class(rng.Intn(int(numClasses))),
			}
		}
		compressMin := 0
		if rng.Intn(4) == 0 {
			compressMin = 1 // force compression: exercises the contiguous body
		}
		hlcOn := rng.Intn(2) == 0
		hlc := rng.Uint64() >> 1

		// The type table is per-connection state: the same sender/receiver
		// pair persists across rounds, like frames on one TCP stream.
		got, gotHLC := decodeV4(t, ttr, encodeV4(t, tts, 0, msgs, compressMin, hlc, hlcOn))
		if hlcOn && gotHLC != hlc {
			t.Fatalf("round %d: hlc = %d, want %d", round, gotHLC, hlc)
		}
		if !hlcOn && gotHLC != 0 {
			t.Fatalf("round %d: hlc = %d without the flag", round, gotHLC)
		}
		if len(got) != n {
			t.Fatalf("round %d: %d msgs, want %d", round, len(got), n)
		}
		for i, m := range msgs {
			b := got[i]
			if b.ID != m.ID || b.Class != m.Class || b.Bytes != m.Bytes || b.Src != 0 {
				t.Fatalf("round %d msg %d: metadata diverged: decoded %+v sent %+v", round, i, b, m)
			}
			if oracle := gobRoundTrip(t, m.Payload); !reflect.DeepEqual(b.Payload, oracle) {
				t.Fatalf("round %d msg %d (%T): binary %#v != gob %#v",
					round, i, m.Payload, b.Payload, oracle)
			}
			if !reflect.DeepEqual(b.Payload, m.Payload) {
				t.Fatalf("round %d msg %d (%T): decoded %#v != sent %#v",
					round, i, m.Payload, b.Payload, m.Payload)
			}
		}
	}
}

// wireFlat and wireNested are registered only through RegisterWireType:
// the flat one qualifies for a binary struct codec, the nested one
// (struct and map fields) must fall back to gob.
type wireFlat struct {
	ID   uint64
	Name string
	Arg  []byte
}

type wireNested struct {
	Inner wirePayload
	M     map[string]int
}

func init() {
	RegisterWireType(wireFlat{})
	RegisterWireType(wireNested{})
}

// TestRegisterWireTypeChoosesCodec pins RegisterWireType's split: a flat
// struct is announced in the type table and sent under a ref >= 1, a
// nested or map-field struct rides typeRef 0 — and both round-trip.
func TestRegisterWireTypeChoosesCodec(t *testing.T) {
	flat := wireFlat{ID: 7, Name: "rpc", Arg: []byte{1, 2, 3}}
	nested := wireNested{Inner: wirePayload{Value: 4, Tag: "in"}, M: map[string]int{"k": 9}}
	if !HasWireCodec(flat) {
		t.Fatal("flat struct has no binary codec after RegisterWireType")
	}
	if HasWireCodec(nested) {
		t.Fatal("nested struct got a binary codec")
	}
	tts := &typeTableSender{}
	frame := encodeV4(t, tts, 0, []BatchMsg{
		{ID: UserHandlerBase, Payload: flat, Bytes: 8, Class: DataClass},
		{ID: UserHandlerBase, Payload: nested, Bytes: 8, Class: DataClass},
	}, 0, 0, false)
	if ref := tts.ids["struct:apgas/internal/x10rt.wireFlat"]; ref < 1 {
		t.Errorf("flat struct type ref = %d, want >= 1 (table %v)", ref, tts.ids)
	}
	if len(tts.ids) != 1 {
		t.Errorf("type table %v, want only the flat struct announced", tts.ids)
	}
	got, _ := decodeV4(t, &typeTableReceiver{}, frame)
	if len(got) != 2 || !reflect.DeepEqual(got[0].Payload, flat) || !reflect.DeepEqual(got[1].Payload, nested) {
		t.Fatalf("decoded %#v, want %#v and %#v", got, flat, nested)
	}
}
