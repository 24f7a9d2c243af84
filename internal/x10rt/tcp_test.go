package x10rt

import (
	"sync"
	"testing"
	"time"
)

type wirePayload struct {
	Value int
	Tag   string
}

func init() {
	RegisterWireType(wirePayload{})
}

func newTestMesh(t *testing.T, n int) []*TCPTransport {
	t.Helper()
	mesh, err := NewLocalTCPMesh(n)
	if err != nil {
		t.Fatalf("NewLocalTCPMesh: %v", err)
	}
	t.Cleanup(func() {
		for _, tr := range mesh {
			tr.Close()
		}
	})
	return mesh
}

func TestTCPBasicDelivery(t *testing.T) {
	mesh := newTestMesh(t, 3)
	got := make(chan wirePayload, 1)
	for _, tr := range mesh {
		if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
			got <- payload.(wirePayload)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mesh[0].Send(0, 2, UserHandlerBase, wirePayload{Value: 7, Tag: "hi"}, 16, DataClass); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case p := <-got:
		if p.Value != 7 || p.Tag != "hi" {
			t.Fatalf("payload = %+v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestTCPSelfSend(t *testing.T) {
	mesh := newTestMesh(t, 2)
	got := make(chan int, 1)
	if err := mesh[1].Register(UserHandlerBase, func(src, dst int, payload any) {
		got <- payload.(wirePayload).Value
	}); err != nil {
		t.Fatal(err)
	}
	if err := mesh[1].Send(1, 1, UserHandlerBase, wirePayload{Value: 9}, 8, ControlClass); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 9 {
			t.Fatalf("value = %d, want 9", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-send not delivered")
	}
}

func TestTCPFIFO(t *testing.T) {
	mesh := newTestMesh(t, 2)
	const n = 200
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	if err := mesh[1].Register(UserHandlerBase, func(src, dst int, payload any) {
		mu.Lock()
		got = append(got, payload.(wirePayload).Value)
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := mesh[0].Send(0, 1, UserHandlerBase, wirePayload{Value: i}, 8, DataClass); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestTCPPingPong(t *testing.T) {
	mesh := newTestMesh(t, 2)
	done := make(chan struct{})
	for i, tr := range mesh {
		i, tr := i, tr
		if err := tr.Register(UserHandlerBase, func(src, dst int, payload any) {
			v := payload.(wirePayload).Value
			if v >= 20 {
				close(done)
				return
			}
			if err := tr.Send(i, src, UserHandlerBase, wirePayload{Value: v + 1}, 8, DataClass); err != nil {
				t.Errorf("pong: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mesh[0].Send(0, 1, UserHandlerBase, wirePayload{Value: 0}, 8, DataClass); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ping-pong stalled")
	}
}

func TestTCPErrors(t *testing.T) {
	mesh := newTestMesh(t, 2)
	if err := mesh[0].Register(UserHandlerBase, func(int, int, any) {}); err != nil {
		t.Fatal(err)
	}
	if err := mesh[0].Send(1, 0, UserHandlerBase, nil, 0, DataClass); err == nil {
		t.Error("send with wrong src succeeded")
	}
	if err := mesh[0].Send(0, 7, UserHandlerBase, nil, 0, DataClass); err == nil {
		t.Error("send to out-of-range dst succeeded")
	}
	mesh[0].Close()
	if err := mesh[0].Send(0, 1, UserHandlerBase, wirePayload{}, 0, DataClass); err == nil {
		t.Error("send after close succeeded")
	}
	if err := mesh[0].Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestTCPWriteFailureRedials pins the send paths' handling of a broken
// outbound connection: the send that hits it fails, the connection is
// dropped, and the next send redials and delivers.
func TestTCPWriteFailureRedials(t *testing.T) {
	for _, tc := range []struct {
		name string
		msgs int // messages one send delivers
		send func(tr *TCPTransport, v int) error
	}{
		{"Send", 1, func(tr *TCPTransport, v int) error {
			return tr.Send(0, 1, UserHandlerBase, wirePayload{Value: v}, 8, DataClass)
		}},
		{"SendBatch", 2, func(tr *TCPTransport, v int) error {
			msg := BatchMsg{ID: UserHandlerBase, Payload: wirePayload{Value: v}, Bytes: 8, Class: DataClass}
			return tr.SendBatch(0, 1, []BatchMsg{msg, msg}, 0)
		}},
	} {
		send := tc.send
		t.Run(tc.name, func(t *testing.T) {
			mesh := newTestMesh(t, 2)
			got := make(chan int, 8)
			if err := mesh[1].Register(UserHandlerBase, func(src, dst int, payload any) {
				got <- payload.(wirePayload).Value
			}); err != nil {
				t.Fatal(err)
			}
			await := func(want int) {
				t.Helper()
				for i := 0; i < tc.msgs; i++ {
					select {
					case v := <-got:
						if v != want {
							t.Fatalf("delivered %d, want %d", v, want)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("message %d not delivered", want)
					}
				}
			}
			if err := send(mesh[0], 1); err != nil {
				t.Fatalf("first send: %v", err)
			}
			await(1)
			mesh[0].mu.Lock()
			mesh[0].conns[1].c.Close()
			mesh[0].mu.Unlock()
			if err := send(mesh[0], 2); err == nil {
				t.Fatal("send on a closed connection succeeded")
			}
			if err := send(mesh[0], 3); err != nil {
				t.Fatalf("send after the failed write did not redial: %v", err)
			}
			await(3)
		})
	}
}

func TestTCPNumPlacesAndAddr(t *testing.T) {
	mesh := newTestMesh(t, 4)
	for _, tr := range mesh {
		if tr.NumPlaces() != 4 {
			t.Fatalf("NumPlaces = %d, want 4", tr.NumPlaces())
		}
		if tr.Addr() == "" {
			t.Fatal("empty Addr")
		}
	}
}
