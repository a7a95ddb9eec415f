package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent is 0 for a root span; Req
// ties together the spans of one request (0 when the span belongs to no
// request, such as a replayed library call).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	id := t.reserve()
	t.addWithID(id, name, parent, req, start, end)
	return id
}

// reserve allocates an ID for a span whose children finish before it does.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// addWithID records a finished span under an ID taken from reserve.
func (t *tracer) addWithID(id int64, name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
}

// snapshot returns the recorded spans ordered by ID.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by its children. Overlapping
// children are counted once, and a child running past its parent only
// covers the overlap.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// writeSpans writes the spans as JSON lines, one span per line with its
// self time, to dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
