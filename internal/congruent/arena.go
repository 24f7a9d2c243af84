package congruent

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"apgas/internal/x10rt"
)

// This file binds congruent arrays to the transport's one-sided lane:
// every NewArray registers one x10rt.Arena per place under a symmetric
// arena id, so a sender can name remote memory as (arena, offset) and the
// transport can land the bytes without active-message dispatch — the
// paper's registered-segment contract (§3.3: RDMA "requires memory
// segments registered with the network hardware, and the initiating task
// must know the effective address of both ends").
//
// The arena closures carry the element type, so x10rt never reflects:
// PutLocal moves typed slices (in-process transports, true zero copy),
// PutLE/ReadOp translate little-endian wire bytes (TCP), and Xor/Add/
// XorBatch are the GUPS remote updates. Every closure runs under one
// mutex per fragment, taken once per op — once per batch for XorBatch —
// around plain loads and stores: on the chan transport one dispatcher
// lands all of a place's ops, so the lock is uncontended; on TCP it
// orders the per-peer reader goroutines. Only fixed-width numeric
// element types get a wire form; other types register a local-only
// window and the RDMA operations fall back to the active-message path.

// registerArenas installs one window per place for arr and records the
// symmetric arena id. wireOK reports whether the element type has a
// little-endian wire form (required for byte-stream transports).
func registerArenas[T any](arr *Array[T]) {
	at := arr.alloc.rt.Arenas()
	if at == nil {
		return
	}
	arr.arenaID = at.Reserve()
	for p := range arr.frags {
		a := arenaFor(arr.frags[p])
		if a.PutLE == nil {
			arr.localOnly = true
		}
		at.Register(p, arr.arenaID, a)
	}
}

// arenaFor builds the type-erased window closures over one fragment.
// Byte windows also expose Raw, which wire transports read puts into
// without the lock.
func arenaFor[T any](frag []T) *x10rt.Arena {
	var z T
	var mu sync.Mutex
	a := &x10rt.Arena{Elems: len(frag), ElemSize: int(sizeOf(z))}
	a.PutLocal = func(off int, local any) {
		mu.Lock()
		copy(frag[off:], local.([]T))
		mu.Unlock()
	}
	a.ReadOp = func(off, elems int) (any, func([]byte) []byte) {
		// Snapshot at read time: the reply may cross a wire after the
		// fragment has moved on, exactly like a posted RDMA get.
		snap := make([]T, elems)
		mu.Lock()
		copy(snap, frag[off:off+elems])
		mu.Unlock()
		return snap, func(dst []byte) []byte { return appendWireLE(dst, snap) }
	}
	var putLE func(off, elems int, data []byte)
	switch f := any(frag).(type) {
	case []byte:
		a.Raw = f // wire puts land straight into the fragment
		putLE = func(off, elems int, data []byte) { copy(f[off:off+elems], data) }
	case []uint64:
		putLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = binary.LittleEndian.Uint64(data[i*8:])
			}
		}
		a.Xor = func(idx int, val uint64) {
			mu.Lock()
			f[idx] ^= val
			mu.Unlock()
		}
		a.Add = func(idx int, val uint64) {
			mu.Lock()
			f[idx] += val
			mu.Unlock()
		}
		a.XorBatch = func(recs []x10rt.XorUpdate) error {
			mu.Lock()
			defer mu.Unlock()
			for _, u := range recs {
				if uint(u.Idx) >= uint(len(f)) {
					return fmt.Errorf("%w: xorbatch index %d outside arena of %d elems",
						x10rt.ErrFrameCorrupt, u.Idx, len(f))
				}
				f[u.Idx] ^= u.Val
			}
			return nil
		}
	case []int64:
		putLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
			}
		}
	case []float64:
		putLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
		}
	case []uint32:
		putLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = binary.LittleEndian.Uint32(data[i*4:])
			}
		}
	case []int32:
		putLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
			}
		}
	case []float32:
		putLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
			}
		}
	}
	if putLE != nil {
		a.PutLE = func(off, elems int, data []byte) {
			mu.Lock()
			putLE(off, elems, data)
			mu.Unlock()
		}
	}
	return a
}

// appendWireLE appends the little-endian wire form of src. Types without
// a wire form return dst unchanged — such arrays are localOnly and never
// reach a byte-stream transport.
func appendWireLE[T any](dst []byte, src []T) []byte {
	switch s := any(src).(type) {
	case []byte:
		return append(dst, s...)
	case []uint64:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	case []int64:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case []float64:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case []uint32:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	case []int32:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case []float32:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// oneSided reports whether arr's RDMA operations may use the transport's
// one-sided lane from the calling side.
func (arr *Array[T]) oneSided() bool {
	return arr.arenaID != 0 && !arr.localOnly
}
