package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the program's public functions. Spans of one campaign share
// its key; Parent is the span that caused this one (0 for a root).
type span struct {
	ID, Parent int64
	Name       string
	Layer      string
	Key        string
	TID        int
	Start, End time.Duration // since the recorder's origin
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
// A nil recorder records nothing, so untraced code paths share the calls.
func (r *recorder) begin(layer, name string, parent int64, key string, tid int) (int64, func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Since(r.t0)
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Key: key, TID: tid, Start: start})
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// durations returns the durations of every closed span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTime sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func (r *recorder) selfTime() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	var curS, curE time.Duration = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Key != "" {
			args["key"] = s.Key
		}
		evs = append(evs, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.TID, Args: args})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
