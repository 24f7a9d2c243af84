package x10rt

import "testing"

// The two tests below keep the names they had when per-link counts
// lived in a counting decorator; the link table every transport carries
// now holds those counts, and Links is its snapshot.

func TestCountingTransportLinks(t *testing.T) {
	tr := newTestChan(t, 4)
	if err := tr.Register(UserHandlerBase, func(int, int, any) {}); err != nil {
		t.Fatal(err)
	}
	send := func(src, dst int, class Class) {
		if err := tr.Send(src, dst, UserHandlerBase, nil, 8, class); err != nil {
			t.Fatal(err)
		}
	}
	// Control: 1->0 x3, 2->0 x1, 3->2 x1; self-send 0->0 ignored by fan-in.
	send(1, 0, ControlClass)
	send(1, 0, ControlClass)
	send(1, 0, ControlClass)
	send(2, 0, ControlClass)
	send(3, 2, ControlClass)
	send(0, 0, ControlClass)
	// Data should not pollute control accounting.
	send(3, 0, DataClass)

	links := tr.Links()
	srcs, msgs := links.FanIn(0, ControlClass)
	if srcs != 2 || msgs != 4 {
		t.Errorf("FanIn(0) = %d sources %d msgs, want 2, 4", srcs, msgs)
	}
	if got := links.MaxInDegree(ControlClass); got != 2 {
		t.Errorf("MaxInDegree = %d, want 2", got)
	}
	if got := links.MaxOutDegree(ControlClass); got != 1 {
		t.Errorf("MaxOutDegree = %d, want 1", got)
	}
	if got := links.Link(1, 0); got.Messages[ControlClass] != 3 || got.Bytes[ControlClass] != 24 {
		t.Errorf("Link(1, 0) control = %d msgs / %d bytes, want 3 / 24", got.Messages[ControlClass], got.Bytes[ControlClass])
	}
	// Place 1 sends to two distinct destinations; the earlier snapshot
	// is a copy and does not see it.
	send(1, 2, ControlClass)
	if got := tr.Links().MaxOutDegree(ControlClass); got != 2 {
		t.Errorf("MaxOutDegree after extra send = %d, want 2", got)
	}
	if got := links.MaxOutDegree(ControlClass); got != 1 {
		t.Errorf("earlier snapshot MaxOutDegree = %d, want 1", got)
	}
	// The aggregate Stats is the sum of the link table.
	var sum Stats
	for _, c := range tr.Links().Cells {
		sum = sum.Add(c)
	}
	if s := tr.Stats(); s != sum || s.TotalMessages() != 8 {
		t.Errorf("Stats = %+v, want the sum of Links %+v with 8 messages", s, sum)
	}
}

func TestCountingTransportPropagatesErrors(t *testing.T) {
	tr := newTestChan(t, 2)
	if err := tr.Register(UserHandlerBase, func(int, int, any) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, 9, UserHandlerBase, nil, 8, DataClass); err == nil {
		t.Error("send to a bad place succeeded")
	}
	if err := tr.Send(0, 1, UserHandlerBase+9, nil, 8, DataClass); err == nil {
		t.Error("send to an unregistered handler succeeded")
	}
	tr.Close()
	if err := tr.Send(0, 1, UserHandlerBase, nil, 8, DataClass); err == nil {
		t.Error("send after Close succeeded")
	}
	// Failed sends must not be counted.
	for i, c := range tr.Links().Cells {
		if c.TotalMessages() != 0 || c.WireBytes != 0 {
			t.Errorf("link %d->%d counted a failed send: %+v", i/2, i%2, c)
		}
	}
}
