package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark's own code: a public call
// of the timed path, or a layer entry point of a verdict's breakdown.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Verdict int     `json:"verdict"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the tracer was created
	EndUS   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.EndUS - s.StartUS) / 1000 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced timed path calls the same code.
type tracer struct {
	t0       time.Time
	verdicts atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span. It returns the span's ID, for children to name as
// their parent, and the function that closes the span and returns its
// length in ms.
func (t *tracer) begin(name string, parent, verdict int) (int, func() float64) {
	if t == nil {
		return 0, noSpan
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Verdict: verdict, Name: name})
	t.mu.Unlock()
	return id, func() float64 {
		end := time.Since(t.t0)
		t.mu.Lock()
		s := &t.spans[id-1]
		s.StartUS = float64(start) / float64(time.Microsecond)
		s.EndUS = float64(end) / float64(time.Microsecond)
		t.mu.Unlock()
		return float64(end-start) / float64(time.Millisecond)
	}
}

func noSpan() float64 { return 0 }

// verdictID numbers the verdicts of a traced run from 1; 0 when untraced.
func (t *tracer) verdictID() int {
	if t == nil {
		return 0
	}
	return int(t.verdicts.Add(1))
}

// call runs f inside a span and returns the span's length in ms.
func (t *tracer) call(name string, parent, verdict int, f func()) float64 {
	_, end := t.begin(name, parent, verdict)
	f()
	return end()
}

// selfMS returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.
func (t *tracer) selfMS() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += s.ms() - coveredMS(children[s.ID])
	}
	return out
}

// coveredMS is the length of the union of the spans' intervals, so that
// children running at once (two HTTP clients) are not counted twice.
func coveredMS(ss []span) float64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].StartUS < ss[j].StartUS })
	total, lo, hi := 0.0, ss[0].StartUS, ss[0].EndUS
	for _, s := range ss[1:] {
		if s.StartUS > hi {
			total += hi - lo
			lo, hi = s.StartUS, s.EndUS
		} else if s.EndUS > hi {
			hi = s.EndUS
		}
	}
	return (total + hi - lo) / 1000
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
