package main

import (
	"strings"

	"apgas/internal/core"
	"apgas/internal/glb"
	"apgas/internal/obs"
	"apgas/internal/x10rt"
)

// layers are the exact counters a traced repetition read through the
// layers' public accessors. Counts add across repetitions.
type layers struct {
	// in-process runtime (core.Config.Obs registry, Transport().Stats())
	spawned     uint64 // Σ sched.p<i>.spawned
	ctlRecv     uint64 // finish.ctl.recv
	asyncRemote uint64 // core.async.remote
	oneSided    uint64 // core.onesided
	stats       x10rt.Stats
	finishN     uint64 // finishes observed, all patterns (finish.<pattern>.us)
	finishSumUs uint64
	glb         glb.Stats

	// wire lane (WireLedger, BatchingTransport.BatchStats and its
	// x10rt.batch.* registry counters)
	sent, recv   uint64 // messages sent and received, ledger handler rows
	encNs, decNs uint64
	linkMsgs     uint64
	wireBytes    uint64
	qwaitNs      uint64
	qBatches     uint64
	batches      uint64
	batchMsgs    uint64
	flush        [3]uint64 // idle, size, aged
	delivered    uint64    // messages the wire workload's handlers saw
}

// runtimeLayers reads a finished runtime's counters.
func runtimeLayers(rt *core.Runtime, o *obs.Obs) *layers {
	snap := o.Metrics.Snapshot()
	l := &layers{
		ctlRecv:     snap.Counter("finish.ctl.recv"),
		asyncRemote: snap.Counter("core.async.remote"),
		oneSided:    snap.Counter("core.onesided"),
		stats:       rt.Transport().Stats(),
	}
	for name, v := range snap {
		switch {
		case strings.HasPrefix(name, "sched.p") && strings.HasSuffix(name, ".spawned"):
			l.spawned += v.Count
		case strings.HasPrefix(name, "finish.") && strings.HasSuffix(name, ".us"):
			l.finishN += v.Count
			l.finishSumUs += v.Sum
		}
	}
	return l
}

// addWire folds one wire mesh's ledger and batching counters in.
func (l *layers) addWire(lg *x10rt.WireLedger, eps []*x10rt.BatchingTransport, regs []*obs.Registry) {
	snap := lg.Snapshot()
	for _, h := range snap.Handlers {
		l.sent += h.Msgs
		l.recv += h.RecvMsgs
		l.encNs += h.EncNs
		l.decNs += h.DecNs
	}
	for _, k := range snap.Links {
		l.linkMsgs += k.Msgs
		l.wireBytes += k.Wire
		l.qwaitNs += k.QwaitNs
		l.qBatches += k.Batches
	}
	for i, ep := range eps {
		b, m := ep.BatchStats()
		l.batches += b
		l.batchMsgs += m
		r := regs[i].Snapshot()
		l.flush[0] += r.Counter("x10rt.batch.flush.idle")
		l.flush[1] += r.Counter("x10rt.batch.flush.size")
		l.flush[2] += r.Counter("x10rt.batch.flush.aged")
	}
}

func (l *layers) add(o *layers) {
	l.spawned += o.spawned
	l.ctlRecv += o.ctlRecv
	l.asyncRemote += o.asyncRemote
	l.oneSided += o.oneSided
	l.addStats(o.stats)
	l.finishN += o.finishN
	l.finishSumUs += o.finishSumUs
	l.glb.Processed += o.glb.Processed
	l.glb.StealAttempts += o.glb.StealAttempts
	l.glb.StealSuccesses += o.glb.StealSuccesses
	l.glb.LifelineRequests += o.glb.LifelineRequests
	l.glb.LifelineDeliveries += o.glb.LifelineDeliveries
	l.glb.Resuscitations += o.glb.Resuscitations
	l.sent += o.sent
	l.recv += o.recv
	l.encNs += o.encNs
	l.decNs += o.decNs
	l.linkMsgs += o.linkMsgs
	l.wireBytes += o.wireBytes
	l.qwaitNs += o.qwaitNs
	l.qBatches += o.qBatches
	l.batches += o.batches
	l.batchMsgs += o.batchMsgs
	for i := range l.flush {
		l.flush[i] += o.flush[i]
	}
	l.delivered += o.delivered
}

func (l *layers) addStats(st x10rt.Stats) {
	for i := range l.stats.Messages {
		l.stats.Messages[i] += st.Messages[i]
		l.stats.Bytes[i] += st.Bytes[i]
	}
	l.stats.WireBytes += st.WireBytes
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics from the traced repetitions'
// counters, the untraced repetitions' timings and the probes. Counts
// are per unit of work (1k updates on ra, Mnode on uts, transform on
// fft, message on wire); a layer a workload bypasses reads 0. The
// workloads that run no finish or never serialize take the finish
// latency and the wire-lane figures from the probes, which drive those
// layers in the workload's shape.
func (m *measurement) perLayer() map[string]metric {
	var tot layers
	var units float64
	var tracedRate []float64
	for _, s := range m.traced {
		tot.add(s.layers)
		units += s.units
		tracedRate = append(tracedRate, s.rate)
	}
	var class1, plainRate, lat, gcs []float64
	var kernel, wall float64
	for _, s := range m.plain {
		class1 = append(class1, s.class1)
		plainRate = append(plainRate, s.rate)
		lat = append(lat, s.lat...)
		gcs = append(gcs, float64(s.gcs))
		kernel += s.kernel
		wall += s.wall
	}
	per := func(v uint64) float64 { return ratio(float64(v), units) }
	p := m.probes
	// The finish histograms' power-of-two buckets would make a
	// quantile depend on bucket counts alone, so the exact mean is used.
	finish := &tot
	if finish.finishN == 0 {
		finish = &p.finish
	}
	wire := &tot
	if m.workload != "wire" {
		wire = p.wire
		if wire == nil { // the probe failed; reported on standard error
			wire = &layers{}
		}
	}
	return map[string]metric{
		"apps.rate_m_s":    {median(plainRate), "M/s"},
		"apps.lat_p50_us":  {quantile(lat, 0.5), "us"},
		"apps.lat_p90_us":  {quantile(lat, 0.9), "us"},
		"apps.class1_rate": {median(class1), "M/s"},
		"apps.timed_share": {ratio(kernel, wall), "ratio"},

		"sched.activities_per_unit": {per(tot.spawned), "count"},
		"sched.spawn_ns":            {p.spawnNs, "ns"},

		"core.finish_ctl_msgs_per_unit": {per(tot.ctlRecv), "count"},
		"core.async_remote_per_unit":    {per(tot.asyncRemote), "count"},
		"core.finish_latency_mean_us":   {ratio(float64(finish.finishSumUs), float64(finish.finishN)), "us"},
		"core.at_rtt_us":                {p.atRttUs, "us"},
		"core.finish_spmd_us":           {p.finishSpmdUs, "us"},

		"congruent.xor_send_ns_per_update":   {p.xorSendNs, "ns"},
		"congruent.xor_land_ns_per_update":   {p.xorLandNs, "ns"},
		"congruent.onesided_ops_per_kupdate": {per(tot.oneSided), "count"},
		"congruent.alloc_bytes_per_update":   {p.xorAllocB, "B"},
		"collectives.alltoall_gbs":           {p.alltoallGBs, "GB/s"},
		"glb.steal_success_ratio":            {ratio(float64(tot.glb.StealSuccesses), float64(tot.glb.StealAttempts)), "ratio"},
		"glb.steal_attempts_per_mnode":       {per(uint64(tot.glb.StealAttempts)), "count"},
		"glb.lifeline_deliveries_per_mnode":  {per(uint64(tot.glb.LifelineDeliveries)), "count"},
		"x10rt.msgs_per_unit.data":           {per(tot.stats.Messages[x10rt.DataClass]), "count"},
		"x10rt.msgs_per_unit.control":        {per(tot.stats.Messages[x10rt.ControlClass]), "count"},
		"x10rt.msgs_per_unit.collective":     {per(tot.stats.Messages[x10rt.CollectiveClass]), "count"},
		"x10rt.bytes_per_unit.data":          {per(tot.stats.Bytes[x10rt.DataClass]), "B"},
		"x10rt.chan_send_ns":                 {p.chanSendNs, "ns"},
		"x10rt.wire_bytes_per_msg":           {ratio(float64(wire.wireBytes), float64(wire.linkMsgs)), "B"},
		"x10rt.msgs_per_batch":               {ratio(float64(wire.batchMsgs), float64(wire.batches)), "count"},
		"x10rt.flush_idle_share":             {ratio(float64(wire.flush[0]), float64(wire.batches)), "ratio"},
		"x10rt.flush_size_share":             {ratio(float64(wire.flush[1]), float64(wire.batches)), "ratio"},
		"x10rt.flush_aged_share":             {ratio(float64(wire.flush[2]), float64(wire.batches)), "ratio"},
		"x10rt.enc_ns_per_msg":               {ratio(float64(wire.encNs), float64(wire.sent)), "ns"},
		"x10rt.dec_ns_per_msg":               {ratio(float64(wire.decNs), float64(wire.recv)), "ns"},
		"x10rt.qwait_us":                     {ratio(float64(wire.qwaitNs), float64(wire.qBatches)) / 1e3, "us"},
		"x10rt.rtt_unbatched_p50_us":         {p.rttUnbatchedUs, "us"},

		"obs.trace_overhead":   {ratio(median(plainRate), median(tracedRate)) - 1, "ratio"},
		"go.gc_cycles_per_rep": {median(gcs), "count"},
	}
}
