package x10rt

import "testing"

// TestTracedBatchRoundTrip exercises the HLC-stamped v4 frame end to
// end.
func TestTracedBatchRoundTrip(t *testing.T) {
	msgs := []BatchMsg{
		{ID: HandlerFinishCtl, Class: ControlClass, Bytes: 16, Payload: "ctl"},
		{ID: HandlerSpawn, Class: DataClass, Bytes: 64, Payload: "spawn"},
	}
	const hlc = uint64(0xABCDE) << 16
	frame := encodeV4(t, &typeTableSender{}, 2, msgs, 0, hlc, true)
	if frame[frameHeaderSize]&codecFlagHLC == 0 {
		t.Fatal("traced frame lacks the HLC flag")
	}
	got, gotHLC := decodeV4(t, &typeTableReceiver{}, frame)
	if gotHLC != hlc {
		t.Fatalf("hlc = %#x, want %#x", gotHLC, hlc)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range got {
		if got[i].Src != 2 || got[i].ID != msgs[i].ID || got[i].Payload != msgs[i].Payload {
			t.Fatalf("message %d = %+v", i, got[i])
		}
	}
}

// TestUntracedBatchOmitsHLC pins the tracing-off wire: no HLC flag and
// no clock prefix, so tracing costs nothing on the wire when disabled.
func TestUntracedBatchOmitsHLC(t *testing.T) {
	msgs := []BatchMsg{{ID: HandlerSpawn, Class: DataClass, Bytes: 8, Payload: "x"}}
	plain := encodeV4(t, &typeTableSender{}, 1, msgs, 0, 0, false)
	traced := encodeV4(t, &typeTableSender{}, 1, msgs, 0, 1, true)
	if plain[frameHeaderSize] != 0 {
		t.Fatalf("untraced flags = %#x, want 0", plain[frameHeaderSize])
	}
	if len(traced) != len(plain)+1 {
		t.Fatalf("traced frame %dB, untraced %dB: want exactly one HLC byte more", len(traced), len(plain))
	}
}

func TestTracedBatchCorruptHLCPrefix(t *testing.T) {
	// A truncated/overlong uvarint prefix must be rejected, not panic.
	if _, _, err := decodeCodecBatchPayloadLG([]byte{codecFlagHLC, 0x80}, &typeTableReceiver{}, nil, 1); err == nil {
		t.Fatal("decodeCodecBatchPayloadLG accepted a truncated HLC prefix")
	}
}
