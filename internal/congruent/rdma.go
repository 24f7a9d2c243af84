package congruent

import (
	"fmt"

	"apgas/internal/core"
	"apgas/internal/x10rt"
)

// This file surfaces the RDMA operations: asynchronous array copies
// (X10's Array.asyncCopy, rewired in the paper to use the Torrent's RDMA
// engine) and the "GUPS" remote atomic update feature used by Global
// RandomAccess. All of them are governed by the caller's enclosing finish
// and execute at the destination without consuming a worker slot.
//
// When the transport has a one-sided lane (chan and TCP meshes), the
// operations name (arena, offset) and the transport lands them directly
// in the destination fragment — no active message, no gob, no
// allocation on the data path. Payloads stay typed in process and are
// encoded to raw little-endian bytes only on a wire to another
// endpoint. Otherwise the operations fall back to AtDirect closures,
// the pre-codec model.

// getRequestBytes models the wire size of a get request descriptor on the
// active-message fallback path: arena handle, offset, element count and
// the reply address, 8 bytes each — what an RDMA get actually posts. (The
// one-sided path does not model: the ledger records real frame bytes.)
const getRequestBytes = 32

// xorRequestBytes models one remote-update descriptor on the fallback
// path: index and value.
const xorRequestBytes = 16

// AsyncCopyPut copies src (local data at the calling place) into the
// fragment of dst at place p, starting at dstOff. Termination is tracked
// by the enclosing finish; the call returns immediately.
//
// On the one-sided path src is handed to the transport without a staging
// copy — like any RDMA source buffer it must stay untouched until the
// enclosing finish completes. The active-message fallback copies out.
func AsyncCopyPut[T any](c *core.Ctx, src []T, dst *Array[T], p core.Place, dstOff int) {
	if dstOff < 0 || dstOff+len(src) > dst.perLen {
		panic(fmt.Sprintf("congruent: put [%d,%d) outside fragment of length %d",
			dstOff, dstOff+len(src), dst.perLen))
	}
	var z T
	bytes := int(sizeOf(z)) * len(src)
	if dst.oneSided() {
		op := &x10rt.OneSidedOp{
			Kind:  x10rt.OneSidedPut,
			Arena: dst.arenaID,
			Off:   dstOff,
			Elems: len(src),
			Local: src,
			Bytes: bytes,
		}
		if bs, ok := any(src).([]byte); ok {
			op.Data = bs // byte fragments ride the writev scatter list as-is
		} else {
			op.Raw = func(b []byte) []byte { return appendWireLE(b, src) }
		}
		c.OneSidedSend(p, op)
		return
	}
	// Copy-out at the source side: the in-process substrate must detach
	// from the caller's buffer because, on this path, the caller may
	// reuse it immediately.
	buf := make([]T, len(src))
	copy(buf, src)
	frag := dst.frags // captured; the direct body runs at p
	c.AtDirect(p, bytes, func(cc *core.Ctx) {
		copy(frag[p][dstOff:], buf)
	})
}

// AsyncCopyGet copies [srcOff, srcOff+len(dstBuf)) of src's fragment at
// place p into dstBuf at the calling place. Termination is tracked by the
// enclosing finish. The round trip uses the FINISH_HERE-shaped
// request/response pair internally.
//
// On the one-sided path dstBuf is registered as a transient reply window
// and the response lands in it directly; dstBuf must stay untouched until
// the enclosing finish completes.
func AsyncCopyGet[T any](c *core.Ctx, src *Array[T], p core.Place, srcOff int, dstBuf []T) {
	if srcOff < 0 || srcOff+len(dstBuf) > src.perLen {
		panic(fmt.Sprintf("congruent: get [%d,%d) outside fragment of length %d",
			srcOff, srcOff+len(dstBuf), src.perLen))
	}
	var z T
	bytes := int(sizeOf(z)) * len(dstBuf)
	if src.oneSided() {
		rt := src.alloc.rt
		at := rt.Arenas()
		home := int(c.Place())
		// The reply window is named in the request (ReplyArena), so its
		// id only needs uniqueness, not symmetry; Transient unregisters
		// it when the response put lands.
		rep := arenaFor(dstBuf)
		rep.Transient = true
		replyID := at.Reserve()
		at.Register(home, replyID, rep)
		c.OneSidedSend(p, &x10rt.OneSidedOp{
			Kind:       x10rt.OneSidedGet,
			Arena:      src.arenaID,
			Off:        srcOff,
			Elems:      len(dstBuf),
			ReplyArena: replyID,
		})
		return
	}
	home := c.Place()
	n := len(dstBuf)
	frag := src.frags
	c.AtDirect(p, getRequestBytes, func(cc *core.Ctx) {
		// At the data's home: stage and ship back.
		buf := make([]T, n)
		copy(buf, frag[p][srcOff:srcOff+n])
		cc.AtDirect(home, bytes, func(*core.Ctx) {
			copy(dstBuf, buf)
		})
	})
}

// CopyGet is a blocking get: it performs AsyncCopyGet under an internal
// FINISH_HERE, returning when the data has arrived.
func CopyGet[T any](c *core.Ctx, src *Array[T], p core.Place, srcOff int, dstBuf []T) error {
	return c.FinishPragma(core.PatternHere, func(cc *core.Ctx) {
		AsyncCopyGet(cc, src, p, srcOff, dstBuf)
	})
}

// RemoteXor applies an atomic XOR of val to element idx of arr's fragment
// at place p — the Torrent "GUPS" RDMA feature that Global RandomAccess
// relies on. Updates are atomic per element; termination is tracked by
// the enclosing finish.
func RemoteXor(c *core.Ctx, arr *Array[uint64], p core.Place, idx int, val uint64) {
	if arr.oneSided() {
		c.OneSidedSend(p, &x10rt.OneSidedOp{
			Kind:  x10rt.OneSidedXor,
			Arena: arr.arenaID,
			Off:   idx,
			Val:   val,
		})
		return
	}
	frag := arr.frags
	c.AtDirect(p, xorRequestBytes, func(*core.Ctx) {
		frag[p][idx] ^= val
	})
}

// RemoteAdd applies an atomic ADD of val to element idx of arr's fragment
// at place p — the other remote-update flavor the Torrent exposes
// (fetch-free accumulate). Termination is tracked by the enclosing finish.
func RemoteAdd(c *core.Ctx, arr *Array[uint64], p core.Place, idx int, val uint64) {
	if arr.oneSided() {
		c.OneSidedSend(p, &x10rt.OneSidedOp{
			Kind:  x10rt.OneSidedAdd,
			Arena: arr.arenaID,
			Off:   idx,
			Val:   val,
		})
		return
	}
	frag := arr.frags
	c.AtDirect(p, xorRequestBytes, func(*core.Ctx) {
		frag[p][idx] += val
	})
}

// XorUpdate is one element of a GUPS batch.
type XorUpdate = x10rt.XorUpdate

// RemoteXorBatch applies a batch of XOR updates at place p with a single
// message — the look-ahead batching HPCC RandomAccess permits (up to 1024
// outstanding updates). Termination is tracked by the enclosing finish;
// updates may be reused as soon as the call returns. An index outside
// the fragment surfaces as the finish's error when the batch lands.
func RemoteXorBatch(c *core.Ctx, arr *Array[uint64], p core.Place, updates []XorUpdate) {
	if len(updates) == 0 {
		return
	}
	if arr.oneSided() {
		// The batch rides the lane as pooled typed records; only a wire
		// transport encodes them.
		op, err := x10rt.NewXorBatchOp(arr.arenaID, updates)
		if err != nil {
			panic(fmt.Sprintf("congruent: %v", err))
		}
		c.OneSidedSend(p, op)
		return
	}
	batch := make([]XorUpdate, len(updates))
	copy(batch, updates)
	frag := arr.frags
	c.AtDirect(p, xorRequestBytes*len(batch), func(*core.Ctx) {
		f := frag[p]
		for _, u := range batch {
			f[u.Idx] ^= u.Val
		}
	})
}
