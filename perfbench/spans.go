package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call from the benchmark into a layer of the
// program. Spans nest through Parent (0 = root); the spans of one cell
// share Cell (0 = not inside a cell).
type span struct {
	ID     int
	Name   string
	Parent int
	Cell   int
	Config string // simulator configuration, for core.access
	Refs   int    // references handled, for the per-block spans
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory for one repetition; they are written
// out once, at the end, by writeChromeTrace.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, cell int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Cell: cell, Start: now})
	return id
}

// end closes span id, recording the references it handled and, for
// core.access, the configuration.
func (r *recorder) end(id, refs int, config string) {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.Refs, s.Config = now, refs, config
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// interval is a half-open stretch [lo, hi) of host time.
type interval struct{ lo, hi time.Duration }

// union merges intervals into a sorted, disjoint set.
func union(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, iv := range s {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// measure is the total length of a set of intervals, overlaps counted
// once.
func measure(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range union(ivs) {
		d += iv.hi - iv.lo
	}
	return d
}

// subtract returns the parts of iv that no interval in cut covers.
// Children from several workers may overlap each other; they are merged
// first, so overlapped time is removed once.
func subtract(iv interval, cut []interval) []interval {
	var out []interval
	lo := iv.lo
	for _, c := range union(cut) {
		if c.hi <= lo {
			continue
		}
		if c.lo >= iv.hi {
			break
		}
		if c.lo > lo {
			out = append(out, interval{lo, c.lo})
		}
		lo = c.hi
	}
	if lo < iv.hi {
		out = append(out, interval{lo, iv.hi})
	}
	return out
}

// selfIntervals returns, per span id, the parts of the span that none
// of its children cover: a span's self time is its duration minus the
// time its children cover.
func selfIntervals(spans []span) map[int][]interval {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int][]interval, len(spans))
	for _, s := range spans {
		out[s.ID] = subtract(interval{s.Start, s.End}, children[s.ID])
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format; timestamps are microseconds since the repetition started.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as Chrome trace_event JSON. Each
// cell gets the lowest lane free when it starts, so a 2-worker suite
// draws as two rows under the root.
func writeChromeTrace(path string, spans []span) error {
	cellEnd := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Cell != 0 && s.End > cellEnd[s.Cell] {
			cellEnd[s.Cell] = s.End
		}
	}
	byStart := append([]span(nil), spans...)
	sort.SliceStable(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	lane := make(map[int]int) // cell → tid
	var busyUntil []time.Duration
	for _, s := range byStart {
		if s.Cell == 0 || lane[s.Cell] != 0 {
			continue
		}
		l := 0
		for l < len(busyUntil) && busyUntil[l] > s.Start {
			l++
		}
		if l == len(busyUntil) {
			busyUntil = append(busyUntil, 0)
		}
		busyUntil[l] = cellEnd[s.Cell]
		lane[s.Cell] = l + 1
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "cell": s.Cell}
		if s.Refs > 0 {
			args["refs"] = s.Refs
		}
		if s.Config != "" {
			args["config"] = s.Config
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: lane[s.Cell],
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
