package core

import (
	"errors"

	"apgas/internal/obs"
	"apgas/internal/x10rt"
)

// This file wires the transport's one-sided lane (x10rt frame version 5)
// into the finish protocols. A one-sided op is governed by the caller's
// enclosing finish exactly like an AtDirect — the paper's Array.asyncCopy
// contract ("treated exactly as if it were an async") — but its payload
// never touches active-message dispatch or the gob decoder: the transport
// lands the bytes in the destination arena and then calls rt.onOneSided,
// which settles the finish credit the op carried in its token.
//
// Token layout ([4]uint64): {Home, Seq, Pattern|flags, Span} of the
// governing finRef. The local flag marks a self-directed op whose spawn
// was counted as evLocalSpawn at the send site (mirroring AtDirect's Raw
// self path), so the landing raises no evRemoteBegin.

// oneSidedTokLocal marks a self-directed op in the packed Pattern word.
// Pattern itself occupies the low byte.
const oneSidedTokLocal = uint64(1) << 32

func packFinToken(fin finRef, local bool) [4]uint64 {
	pat := uint64(fin.Pattern)
	if local {
		pat |= oneSidedTokLocal
	}
	return [4]uint64{uint64(fin.ID.Home), fin.ID.Seq, pat, fin.Span}
}

func unpackFinToken(tok [4]uint64) (fin finRef, local bool) {
	fin = finRef{
		ID:      finishID{Home: Place(tok[0]), Seq: tok[1]},
		Pattern: Pattern(tok[2] & 0xff),
		Span:    tok[3],
	}
	return fin, tok[2]&oneSidedTokLocal != 0
}

// OneSidedSend issues op against place p's arenas, governed by the
// calling activity's enclosing finish. Like AtDirect, the call returns
// immediately and the finish tracks termination; unlike AtDirect no
// closure crosses the wire — the transport encodes (arena, offset, raw
// bytes) and the landing is the memcpy itself.
//
// A Put's op.Local/op.Data buffer must stay untouched until the enclosing
// finish completes (the RDMA source-stability contract); a Get's
// ReplyArena must name a registered arena at the calling place.
func (c *Ctx) OneSidedSend(p Place, op *x10rt.OneSidedOp) {
	rt := c.rt
	fin := c.fin
	bytes := op.Bytes
	if m := rt.m; m != nil {
		m.oneSided.Inc()
	}
	if pm := c.pl.pm; pm != nil {
		pm.oneSided.Inc()
	}
	if fi := rt.fids; fi != nil {
		rt.flight.Record2(fi.oneSided, fi.catCore, 'i', int(c.pl.id), 0, 0,
			fi.kDst, int64(p), fi.kBytes, int64(bytes))
	}
	if tr := rt.tracer; tr != nil {
		tr.Instant("onesided", "core", int(c.pl.id),
			obs.Arg{Key: "dst", Val: int64(p)}, obs.Arg{Key: "bytes", Val: int64(bytes)})
	}
	if p == c.pl.id {
		// Self-directed: the op still travels through the transport (the
		// paper's "we always rely on PAMI to communicate among places
		// even if they belong to the same octant"), but the finish sees
		// the AtDirect-style local pair — evLocalSpawn now, evTerminate
		// when the landing hook runs.
		if !rt.finEvent(fin, c.pl, evLocalSpawn, p, nil, c) {
			return // governing finish orphaned by a place death
		}
		op.Token = packFinToken(fin, true)
		if err := rt.tr.SendOneSided(int(c.pl.id), int(p), op); err != nil {
			if !rt.sendDroppable(err) {
				panicSendFailure(c.pl.id, p, err)
			}
			rt.spawnFailed(fin, c.pl, p, err, true)
		}
		return
	}
	if rt.anyDeath() && rt.PlaceDead(p) {
		rt.spawnFailed(fin, c.pl, p, &x10rt.PlaceDeadError{Place: int(p)}, false)
		return
	}
	if !rt.finEvent(fin, c.pl, evRemoteSpawn, p, nil, c) {
		return // governing finish orphaned by a place death
	}
	op.Token = packFinToken(fin, false)
	if err := rt.tr.SendOneSided(int(c.pl.id), int(p), op); err != nil {
		if !rt.sendDroppable(err) {
			panicSendFailure(c.pl.id, p, err)
		}
		rt.spawnFailed(fin, c.pl, p, err, true)
	}
}

// onOneSided is the ArenaTable hook: the transport calls it (on its
// dispatcher/reader) after parsing a one-sided frame, instead of applying
// the op itself. It lands the op and settles the finish credit the op's
// token carries. Errors from Apply — a bad offset, an unknown arena — are
// reported through the finish like an activity panic; the transport never
// sees them (returning an error would kill a TCP connection over what is
// a caller bug, not wire corruption).
func (rt *Runtime) onOneSided(src, dst int, op *x10rt.OneSidedOp, reply func(*x10rt.OneSidedOp) error) error {
	fin, local := unpackFinToken(op.Token)
	if !fin.valid() {
		// Not finish-governed (transport-level harnesses drive arenas
		// directly): land raw, propagate errors to the transport.
		return rt.arenas.Apply(src, dst, op, reply)
	}
	pl := rt.places[dst]
	if local {
		// Self-directed op: spawn was counted as evLocalSpawn at the send
		// site. A self get's reply lands synchronously — same place, no
		// second activity.
		err := rt.arenas.Apply(src, dst, op, func(rep *x10rt.OneSidedOp) error {
			return rt.arenas.Apply(dst, src, rep, nil)
		})
		ctx := &Ctx{rt: rt, pl: pl, fin: fin, span: fin.Span}
		rt.finEvent(fin, pl, evTerminate, Place(dst), err, ctx)
		return nil
	}
	if !rt.finEvent(fin, pl, evRemoteBegin, Place(src), nil, nil) {
		return nil // governing finish orphaned by a place death; op dropped
	}
	// ctx spans the landing: FINISH_HERE tracks its homebound token on it,
	// mirroring the nested-AtDirect reply the gob get path uses.
	ctx := &Ctx{rt: rt, pl: pl, fin: fin, span: fin.Span}
	wrapped := func(rep *x10rt.OneSidedOp) error {
		// A get's reply is a second governed activity dst -> src.
		if rt.anyDeath() && rt.PlaceDead(Place(src)) {
			rt.spawnFailed(fin, pl, Place(src), &x10rt.PlaceDeadError{Place: src}, false)
			return nil
		}
		if !rt.finEvent(fin, pl, evRemoteSpawn, Place(src), nil, ctx) {
			return nil
		}
		rep.Token = packFinToken(fin, false)
		if err := reply(rep); err != nil {
			if !errors.Is(err, x10rt.ErrPlaceDead) {
				return err
			}
			rt.spawnFailed(fin, pl, Place(src), err, true)
		}
		return nil
	}
	err := rt.arenas.Apply(src, dst, op, wrapped)
	rt.finEvent(fin, pl, evTerminate, Place(dst), err, ctx)
	return nil
}
