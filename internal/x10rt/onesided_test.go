package x10rt

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestOneSidedWireBytes pins the arithmetic frame length against the
// encoder: for every kind, at uvarint boundary values of each varint
// field, OneSidedWireBytes must equal the encoded header plus the data
// section, and computing it must not allocate.
func TestOneSidedWireBytes(t *testing.T) {
	bounds := []uint64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28,
		1<<35 - 1, 1 << 35, 1<<63 - 1}
	small := []uint64{0, 127, 128, 16383, 16384}
	for k := OneSidedPut; k < numOneSidedKinds; k++ {
		for _, v := range bounds {
			for _, d := range small {
				ops := []struct {
					src int
					op  OneSidedOp
				}{
					{int(d), OneSidedOp{Kind: k, Arena: v}},
					{0, OneSidedOp{Kind: k, Arena: 1, Off: int(v)}},
					{0, OneSidedOp{Kind: k, Arena: 1, Elems: int(v), Bytes: int(d)}},
					{0, OneSidedOp{Kind: k, Arena: 1, ReplyArena: v, Val: math.MaxUint64}},
					{0, OneSidedOp{Kind: k, Arena: 1, Data: make([]byte, d)}},
				}
				for _, c := range ops {
					head, err := appendOneSidedHeader(nil, c.src, &c.op, oneSidedDataLen(&c.op))
					if err != nil {
						t.Fatalf("%s %+v: encode: %v", k, c.op, err)
					}
					want := len(head) + oneSidedDataLen(&c.op)
					if got := OneSidedWireBytes(c.src, &c.op); got != want {
						t.Errorf("%s src=%d %+v: OneSidedWireBytes = %d, encoder says %d",
							k, c.src, c.op, got, want)
					}
				}
			}
		}
	}
	for _, k := range []OneSidedKind{0, numOneSidedKinds} {
		if n := OneSidedWireBytes(0, &OneSidedOp{Kind: k}); n != 0 {
			t.Errorf("invalid kind %d: OneSidedWireBytes = %d, want 0", k, n)
		}
	}
	if n := OneSidedWireBytes(0, &OneSidedOp{Kind: OneSidedPut, Bytes: MaxFrameSize}); n != 0 {
		t.Errorf("oversized put: OneSidedWireBytes = %d, want 0 (the encoder rejects it)", n)
	}
	op := &OneSidedOp{Kind: OneSidedXorBatch, Arena: 3, Elems: 1024, Bytes: 1024 * oneSidedRecordBytes}
	if a := testing.AllocsPerRun(100, func() { OneSidedWireBytes(1, op) }); a != 0 {
		t.Errorf("OneSidedWireBytes allocates %.0f times per call, want 0", a)
	}
}

// TestXorBatchOpRecords: a pooled batch op carries a copy of its
// updates (the caller may reuse them at once), its wire appender writes
// exactly its 12-byte wire records, and indexes without a
// 4-byte wire form are refused up front.
func TestXorBatchOpRecords(t *testing.T) {
	ups := []XorUpdate{{Idx: 0, Val: 1}, {Idx: math.MaxUint32, Val: math.MaxUint64}, {Idx: 77, Val: 0xdead}}
	op, err := NewXorBatchOp(9, ups)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]XorUpdate(nil), ups...)
	ups[0].Val = 42 // the op owns a copy
	if op.Kind != OneSidedXorBatch || op.Arena != 9 || op.Elems != 3 || op.Bytes != 3*oneSidedRecordBytes {
		t.Fatalf("op = %+v", op)
	}
	wire := op.Raw(nil)
	if len(wire) != op.Bytes {
		t.Fatalf("wire form is %d bytes, want %d", len(wire), op.Bytes)
	}
	for i, w := range want {
		rec := wire[i*oneSidedRecordBytes:]
		idx, val := int(binary.LittleEndian.Uint32(rec)), binary.LittleEndian.Uint64(rec[4:])
		if idx != w.Idx || val != w.Val {
			t.Errorf("record %d = (%d, %#x), want (%d, %#x)", i, idx, val, w.Idx, w.Val)
		}
	}
	op.release()
	if op.Local != nil {
		t.Error("released op still carries its records")
	}
	for _, idx := range []int{-1, math.MaxUint32 + 1} {
		if _, err := NewXorBatchOp(9, []XorUpdate{{Idx: idx}}); err == nil {
			t.Errorf("index %d accepted, want a wire-range error", idx)
		}
	}
}
