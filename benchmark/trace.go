package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary. Trace groups the spans of one
// update batch (its sequence number); Parent is the index of the
// enclosing span in the same file, -1 at the top.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Trace   int64  `json:"trace"`
	Round   int    `json:"round"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	round int
	cur   int // innermost open scope; new spans are its children
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: noSpan} }

// noSpan is the id begin returns when tracing is off.
const noSpan = -1

// begin opens a span for one call, a child of the open scope.
func (t *tracer) begin(name string, trace int64) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, Parent: t.cur, Trace: trace, Round: t.round})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// scope opens a span that later spans nest under until it ends. Scopes
// are opened and closed by the producer goroutine only, innermost first.
func (t *tracer) scope(name string) int {
	id := t.begin(name, -1)
	if t != nil {
		t.mu.Lock()
		t.cur = id
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	if t.cur == id {
		t.cur = t.spans[id].Parent
	}
	t.mu.Unlock()
}

// total sums the durations, in seconds, of this round's spans with the
// given name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Round == t.round && s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
