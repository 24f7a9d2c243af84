package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval the benchmark spent inside a call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// spans records the benchmark's own spans in memory; the traced run
// writes them out when it ends. A nil *spans records nothing, which is
// how untraced repetitions run. It is used from one goroutine only.
type spans struct {
	t0   time.Time
	list []span
}

// begin opens a span and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := int64(time.Since(s.t0))
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(s.list)
}

// end closes the span begin returned.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].End = int64(time.Since(s.t0))
}

// call runs f inside a span.
func (s *spans) call(name string, parent int, f func()) {
	id := s.begin(name, parent)
	f()
	s.end(id)
}

func (s *spans) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	var list []span
	if s != nil {
		list = s.list
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{list})
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
