package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark call into a layer of the engine: the benchmark
// records it around its own call, never inside the program.
type span struct {
	ID     int
	Parent int
	Name   string
	Layer  string
	Track  string
	Run    string
	Start  int64 // ns since the recorder's origin
	End    int64
}

// spans keeps every span of a traced run in memory until the run ends.
// A nil *spans records nothing, so untraced runs pay one nil check per
// call site.
type spans struct {
	origin time.Time
	run    string

	mu   sync.Mutex
	list []span
}

func newSpans(run string) *spans { return &spans{origin: time.Now(), run: run} }

// begin opens a span and returns its id (0 when tracing is off).
func (s *spans) begin(layer, name, track string, parent int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.origin).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{
		ID: len(s.list) + 1, Parent: parent, Name: name, Layer: layer,
		Track: track, Run: s.run, Start: now, End: -1,
	})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.origin).Nanoseconds()
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

func (s *spans) snapshot() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}

// selfTimeMS returns each layer's self time: every span's duration minus
// the part of its interval that its child spans cover, summed by layer.
func selfTimeMS(list []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, sp := range list {
		if sp.Parent != 0 && sp.End >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	out := map[string]float64{}
	for _, sp := range list {
		if sp.End < 0 {
			continue
		}
		self := sp.End - sp.Start - covered(children[sp.ID], sp.Start, sp.End)
		out[sp.Layer] += float64(self) / 1e6
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		s, e := max(curS, lo), min(curE, hi)
		if e > s {
			total += e - s
		}
	}
	for _, iv := range ivs {
		if curE < 0 || iv[0] > curE {
			if curE >= 0 {
				flush()
			}
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	flush()
	return total
}

// writeChromeTrace writes list as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, one thread
// per track, with id, parent and run id in the event args.
func writeChromeTrace(path string, list []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	var events []any
	for _, sp := range list {
		if sp.End < 0 {
			continue
		}
		tid, ok := tids[sp.Track]
		if !ok {
			tid = len(tids) + 1
			tids[sp.Track] = tid
			events = append(events, map[string]any{
				"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]any{"name": sp.Track},
			})
		}
		events = append(events, event{
			Name: sp.Name, Cat: sp.Layer, Ph: "X",
			TS: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent, "run": sp.Run},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
