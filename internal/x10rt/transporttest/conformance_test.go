package transporttest_test

import (
	"testing"
	"time"

	"apgas/internal/chaos"
	"apgas/internal/obs"
	"apgas/internal/x10rt"
	"apgas/internal/x10rt/transporttest"
)

// singleObjectMesh adapts a transport whose one value serves every
// place (chan and any decorator over it).
func singleObjectMesh(places int, tr x10rt.Transport) *transporttest.Mesh {
	return &transporttest.Mesh{
		Places:   places,
		Endpoint: func(p int) x10rt.Transport { return tr },
		Register: tr.Register,
		Close:    tr.Close,
	}
}

func chanFactory(t *testing.T, places int) *transporttest.Mesh {
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return singleObjectMesh(places, tr)
}

// endpointMesh adapts a mesh of per-place endpoints (TCP, and any
// decorator wrapped around each endpoint).
func endpointMesh[T x10rt.Transport](eps []T) *transporttest.Mesh {
	return &transporttest.Mesh{
		Places:   len(eps),
		Endpoint: func(p int) x10rt.Transport { return eps[p] },
		Register: func(id x10rt.HandlerID, h x10rt.Handler) error {
			for _, tr := range eps {
				if err := tr.Register(id, h); err != nil {
					return err
				}
			}
			return nil
		},
		Close: func() error {
			var first error
			for _, tr := range eps {
				if err := tr.Close(); err != nil && first == nil {
					first = err
				}
			}
			return first
		},
	}
}

// localTCPMesh opens a loopback TCP mesh closed at test cleanup (after
// any wrapper has closed it too: Close is idempotent).
func localTCPMesh(t *testing.T, places int) []*x10rt.TCPTransport {
	mesh, err := x10rt.NewLocalTCPMesh(places)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range mesh {
			tr.Close()
		}
	})
	return mesh
}

// codecTCPMesh is the TCP mesh with the v4 codec's optional paths in
// use on every frame: a distributed-tracing tracer per endpoint stamps
// each frame with the sender's hybrid logical clock (the HLC flag and
// prefix), and a shared wire ledger times every encode and decode per
// handler and link.
func codecTCPMesh(t *testing.T, places int) []*x10rt.TCPTransport {
	mesh := localTCPMesh(t, places)
	lg := x10rt.NewWireLedger(places, nil)
	for _, tr := range mesh {
		tc := obs.NewTracer()
		tc.EnableDist(1)
		tr.AttachTracer(tc)
		tr.AttachWireLedger(lg)
	}
	return mesh
}

// tcpFactory is the TCP mesh: v4 frames with a per-connection type-table
// handshake for active messages, v5 frames for one-sided ops.
func tcpFactory(t *testing.T, places int) *transporttest.Mesh {
	return endpointMesh(localTCPMesh(t, places))
}

// codecTCPFactory runs the same battery over HLC-stamped, ledger-timed
// v4 frames: the contract must hold bit-for-bit when every frame
// carries the clock prefix.
func codecTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	return endpointMesh(codecTCPMesh(t, places))
}

// countingFactory is the chan transport with every view of its link
// table attached: a mesh-wide registry, a registry per place and a wire
// ledger, so the battery runs with those views attached.
func countingFactory(t *testing.T, places int) *transporttest.Mesh {
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	tr.AttachMetrics(o.Metrics)
	for p := 0; p < places; p++ {
		tr.AttachPlaceMetrics(p, o.Place(p))
	}
	tr.AttachWireLedger(x10rt.NewWireLedger(places, o.Place))
	t.Cleanup(func() { tr.Close() })
	return singleObjectMesh(places, tr)
}

func batchingFactory(t *testing.T, places int) *transporttest.Mesh {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	tr := x10rt.NewBatchingTransport(inner, x10rt.BatchOptions{
		MaxDelay:  100 * time.Microsecond,
		MaxFrames: 16,
	})
	t.Cleanup(func() { tr.Close() })
	return singleObjectMesh(places, tr)
}

// batchingMesh stacks the batching wrapper over a serializing mesh,
// exercising the SendBatch fast path (coalesced v4 frames) under the
// same battery.
func batchingMesh(mesh []*x10rt.TCPTransport) *transporttest.Mesh {
	wrapped := make([]*x10rt.BatchingTransport, len(mesh))
	for p, tr := range mesh {
		wrapped[p] = x10rt.NewBatchingTransport(tr, x10rt.BatchOptions{
			MaxDelay:  100 * time.Microsecond,
			MaxFrames: 16,
		})
	}
	return endpointMesh(wrapped)
}

// chaosMesh wraps a TCP mesh in the chaos decorator (zero fault
// probabilities): one-sided and v4 frames must pass through the fault
// plumbing untouched and without consuming fault-stream sequence
// numbers.
func chaosMesh(mesh []*x10rt.TCPTransport) *transporttest.Mesh {
	wrapped := make([]*chaos.Transport, len(mesh))
	for p, tr := range mesh {
		wrapped[p] = chaos.Wrap(tr, chaos.Options{Seed: 1})
	}
	return endpointMesh(wrapped)
}

func batchingTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	return batchingMesh(localTCPMesh(t, places))
}

func batchingCodecTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	return batchingMesh(codecTCPMesh(t, places))
}

func chaosTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	return chaosMesh(localTCPMesh(t, places))
}

func chaosCodecTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	return chaosMesh(codecTCPMesh(t, places))
}

func chaosFactory(t *testing.T, places int) *transporttest.Mesh {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	// Zero fault probabilities: the wrapper's plumbing (link walk,
	// virtual clock, hold machinery) is in the path, the faults are
	// not, so the base contract must hold exactly.
	tr := chaos.Wrap(inner, chaos.Options{Seed: 1})
	t.Cleanup(func() { tr.Close() })
	return singleObjectMesh(places, tr)
}

func TestConformanceChan(t *testing.T)     { transporttest.TestTransport(t, chanFactory) }
func TestConformanceTCP(t *testing.T)      { transporttest.TestTransport(t, tcpFactory) }
func TestConformanceCounting(t *testing.T) { transporttest.TestTransport(t, countingFactory) }
func TestConformanceBatching(t *testing.T) { transporttest.TestTransport(t, batchingFactory) }
func TestConformanceBatchingTCP(t *testing.T) {
	transporttest.TestTransport(t, batchingTCPFactory)
}
func TestConformanceChaos(t *testing.T)    { transporttest.TestTransport(t, chaosFactory) }
func TestConformanceCodecTCP(t *testing.T) { transporttest.TestTransport(t, codecTCPFactory) }
func TestConformanceBatchingCodecTCP(t *testing.T) {
	transporttest.TestTransport(t, batchingCodecTCPFactory)
}
func TestConformanceChaosTCP(t *testing.T) { transporttest.TestTransport(t, chaosTCPFactory) }
func TestConformanceChaosCodecTCP(t *testing.T) {
	transporttest.TestTransport(t, chaosCodecTCPFactory)
}

// The death battery runs against every transport shape: after KillPlace
// the sends fail fast and typed, frames are never duplicated, and death
// notifications fire exactly once per survivor.
func TestDeathChan(t *testing.T)     { transporttest.TestTransportDeath(t, chanFactory) }
func TestDeathTCP(t *testing.T)      { transporttest.TestTransportDeath(t, tcpFactory) }
func TestDeathCounting(t *testing.T) { transporttest.TestTransportDeath(t, countingFactory) }
func TestDeathBatching(t *testing.T) { transporttest.TestTransportDeath(t, batchingFactory) }
func TestDeathBatchingTCP(t *testing.T) {
	transporttest.TestTransportDeath(t, batchingTCPFactory)
}
func TestDeathChaos(t *testing.T)    { transporttest.TestTransportDeath(t, chaosFactory) }
func TestDeathCodecTCP(t *testing.T) { transporttest.TestTransportDeath(t, codecTCPFactory) }
func TestDeathBatchingCodecTCP(t *testing.T) {
	transporttest.TestTransportDeath(t, batchingCodecTCPFactory)
}

// The one-sided battery runs against every transport shape with the
// lane: raw chan (bare and with every accounting view attached), plain
// and HLC-stamped TCP, the batching decorator, and chaos over chan and
// both TCP meshes.
func TestOneSidedChan(t *testing.T)     { transporttest.TestTransportOneSided(t, chanFactory) }
func TestOneSidedTCP(t *testing.T)      { transporttest.TestTransportOneSided(t, tcpFactory) }
func TestOneSidedCodecTCP(t *testing.T) { transporttest.TestTransportOneSided(t, codecTCPFactory) }
func TestOneSidedCounting(t *testing.T) { transporttest.TestTransportOneSided(t, countingFactory) }
func TestOneSidedBatching(t *testing.T) { transporttest.TestTransportOneSided(t, batchingFactory) }
func TestOneSidedBatchingTCP(t *testing.T) {
	transporttest.TestTransportOneSided(t, batchingTCPFactory)
}
func TestOneSidedBatchingCodecTCP(t *testing.T) {
	transporttest.TestTransportOneSided(t, batchingCodecTCPFactory)
}
func TestOneSidedChaos(t *testing.T)    { transporttest.TestTransportOneSided(t, chaosFactory) }
func TestOneSidedChaosTCP(t *testing.T) { transporttest.TestTransportOneSided(t, chaosTCPFactory) }
func TestOneSidedChaosCodecTCP(t *testing.T) {
	transporttest.TestTransportOneSided(t, chaosCodecTCPFactory)
}
