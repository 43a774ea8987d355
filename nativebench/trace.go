package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary: a public function of
// the program called from this benchmark. Spans of one request (a manifest
// check, a daemon job) share Req; Parent names the span that caused it (0
// for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check at each boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// begin starts a span and returns it; pass open.id as the parent of the
// spans it causes.
func (t *tracer) begin(name string, parent, req int64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// end closes a span opened by begin.
func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	t.add(o.id, o.parent, o.req, o.name, o.start, time.Now())
}

// record adds a span whose interval was measured elsewhere (the daemon's
// job timestamps) and returns its id.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.add(id, parent, req, name, start, end)
	return id
}

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// layerTime is the self time of every span of one name.
type layerTime struct {
	Count  int
	SelfNS int64
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.SelfNS += (s.End - s.Start) - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// write dumps every span, with the run's environment, as one JSON
// document.
func (t *tracer) write(path string, env map[string]any) error {
	t.mu.Lock()
	doc := map[string]any{"env": env, "spans": t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
