package x10rt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file exercises the TCP transport under protocol-shaped load: a
// miniature SPMD-style termination protocol implemented purely with
// registered active messages and wire-type payloads — the way a
// cross-process deployment of the runtime would talk, where closures
// cannot travel — and the reader's frame validation against raw bytes.

type workMsg struct {
	Hops int
	Ring int
}

type doneMsg struct {
	Count int
}

func init() {
	RegisterWireType(workMsg{})
	RegisterWireType(doneMsg{})
}

// TestTCPTerminationProtocol runs R rings of hop-limited token forwarding
// across a 4-endpoint mesh; endpoint 0 plays the finish root, counting one
// completion message per ring — the FINISH_SPMD shape over real sockets.
func TestTCPTerminationProtocol(t *testing.T) {
	const places, rings, hops = 4, 8, 12
	mesh := newTestMesh(t, places)

	var done atomic.Int64
	finished := make(chan struct{})
	var once sync.Once

	for i, tr := range mesh {
		i, tr := i, tr
		// Work handler: forward the token or report completion.
		if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
			m := payload.(workMsg)
			if m.Hops == 0 {
				if err := tr.Send(i, 0, UserHandlerBase+1, doneMsg{Count: 1}, 8, ControlClass); err != nil {
					t.Errorf("done send: %v", err)
				}
				return
			}
			next := (i + 1 + m.Ring) % places
			if err := tr.Send(i, next, UserHandlerBase,
				workMsg{Hops: m.Hops - 1, Ring: m.Ring}, 16, DataClass); err != nil {
				t.Errorf("forward: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		// Completion handler (only used at endpoint 0).
		if err := tr.Register(UserHandlerBase+1, func(src, dst int, payload any) {
			m := payload.(doneMsg)
			if done.Add(int64(m.Count)) == rings {
				once.Do(func() { close(finished) })
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	for r := 0; r < rings; r++ {
		start := (r + 1) % places
		if err := mesh[0].Send(0, start, UserHandlerBase,
			workMsg{Hops: hops, Ring: r}, 16, DataClass); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-finished:
	case <-time.After(15 * time.Second):
		t.Fatalf("termination protocol stalled: %d/%d rings done", done.Load(), rings)
	}
	if done.Load() != rings {
		t.Fatalf("done = %d, want %d", done.Load(), rings)
	}
}

// TestTCPHighVolume pushes enough messages through one link to cross
// buffer boundaries.
func TestTCPHighVolume(t *testing.T) {
	mesh := newTestMesh(t, 2)
	const n = 5000
	var got atomic.Int64
	doneCh := make(chan struct{})
	if err := mesh[1].Register(UserHandlerBase, func(src, dst int, payload any) {
		if got.Add(1) == n {
			close(doneCh)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := mesh[0].Send(0, 1, UserHandlerBase, wirePayload{Value: i}, 64, DataClass); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("received %d/%d", got.Load(), n)
	}
}

// retiredGobFrame renders one message in a retired gob framing: version
// 1 is a lone gob-encoded wireMsg; versions 2 and 3 are batches of one
// (flags byte, uvarint count, gob stream), version 3 behind an HLC
// prefix.
func retiredGobFrame(t *testing.T, version byte, payload any) []byte {
	t.Helper()
	var body bytes.Buffer
	if version == 3 {
		body.Write(binary.AppendUvarint(nil, 7))
	}
	if version >= 2 {
		body.Write([]byte{0x00, 0x01})
	}
	m := wireMsg{Src: 0, ID: UserHandlerBase, Class: DataClass, Bytes: 8, Payload: payload}
	if err := gob.NewEncoder(&body).Encode(&m); err != nil {
		t.Fatal(err)
	}
	frame := []byte{frameMagic, version, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(frame[2:], uint32(body.Len()))
	return append(frame, body.Bytes()...)
}

// TestTCPInboundFrameVersions writes raw frames to an endpoint's
// listener: a v4 frame is delivered and keeps the connection, while the
// retired gob versions 1–3, an unknown version, a bad magic and an
// oversized length each tear the connection down undelivered.
func TestTCPInboundFrameVersions(t *testing.T) {
	v4 := encodeV4(t, &typeTableSender{}, 0, []BatchMsg{
		{ID: UserHandlerBase, Payload: "v4", Bytes: 8, Class: DataClass},
	}, 0, 0, false)
	for _, tc := range []struct {
		name  string
		frame []byte
		keep  bool
	}{
		{"v4", v4, true},
		{"v1", retiredGobFrame(t, 1, "v1"), false},
		{"v2", retiredGobFrame(t, 2, "v2"), false},
		{"v3", retiredGobFrame(t, 3, "v3"), false},
		{"unknown-version", []byte{frameMagic, 9, 0, 0, 0, 1, 0}, false},
		{"bad-magic", append([]byte{0x00}, v4[1:]...), false},
		{"huge-length", []byte{frameMagic, batchVersionCodec, 0xff, 0xff, 0xff, 0xff}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := newTestMesh(t, 2)
			got := make(chan any, 1)
			if err := mesh[1].Register(UserHandlerBase, func(src, dst int, payload any) {
				got <- payload
			}); err != nil {
				t.Fatal(err)
			}
			c, err := net.Dial("tcp", mesh[1].Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			var one [1]byte
			if tc.keep {
				select {
				case p := <-got:
					if p != "v4" {
						t.Fatalf("delivered %#v, want \"v4\"", p)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("v4 frame not delivered")
				}
				c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
				if _, err := c.Read(one[:]); !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("connection after a v4 frame: read err %v, want it still open", err)
				}
				return
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(one[:]); errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("connection survived the frame")
			}
			select {
			case p := <-got:
				t.Fatalf("torn-down frame delivered %#v", p)
			default:
			}
		})
	}
}
