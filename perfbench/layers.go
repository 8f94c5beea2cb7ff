package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"pipes"
)

// This file reads the per-layer numbers the engine already exports —
// flight-recorder edge counters, decorator service-time histograms,
// scheduler and memory-manager counters, checkpoint-manager accessors and
// the HTTP endpoints — after (or, for peaks, during) a benchmark run.

// opKind classifies a decorated operator for the ops.<kind> rows.
// Grouped and global aggregates are both GroupBy nodes; grouped names
// the ones built for a query with a GROUP BY clause.
func opKind(p pipes.Pipe, grouped map[string]bool) string {
	t := fmt.Sprintf("%T", p)
	switch {
	case strings.HasSuffix(t, ".Filter"):
		return "filter"
	case strings.HasSuffix(t, ".Map"):
		return "map"
	case strings.HasSuffix(t, "Window"):
		return "window"
	case strings.HasSuffix(t, ".GroupBy"):
		if grouped[p.Name()] {
			return "groupby"
		}
		return "aggregate"
	case strings.HasSuffix(t, ".Join"):
		return "join"
	}
	return "other"
}

// opSelfNS returns, per operator kind, the decorators' service time per
// input element of the run. A decorator's service time includes the
// synchronous downstream hops, so each operator's self time is its
// inclusive total minus the inclusive totals of the decorated operators
// it feeds. Returns nil without decorators.
func opSelfNS(d *pipes.DSMS, inputs int, grouped map[string]bool) map[string]float64 {
	mons := d.Monitors()
	if len(mons) == 0 || inputs == 0 {
		return nil
	}
	incl := map[pipes.Sink]float64{}
	for _, m := range mons {
		h := m.ServiceTimeHistogram()
		if h.Count() == 0 {
			continue
		}
		in, _ := m.Get("input_count")
		incl[m] = float64(h.Sum()) / float64(h.Count()) * in
	}
	child := map[pipes.Sink]float64{}
	for _, e := range d.Graph.Edges() {
		from, ok := e.From.(pipes.Sink)
		if !ok {
			continue
		}
		if v, ok := incl[e.To]; ok {
			child[from] += v
		}
	}
	out := map[string]float64{}
	for _, m := range mons {
		v, ok := incl[m]
		if !ok {
			continue
		}
		out[opKind(m.Inner(), grouped)] += max(v-child[m], 0) / float64(inputs)
	}
	return out
}

// edgeCounters sums the flight recorder's per-edge counters.
func edgeCounters(d *pipes.DSMS) (elements, frames int64) {
	if d.Flight == nil {
		return 0, 0
	}
	for _, ref := range d.Flight.Refs() {
		elements += ref.Elements()
		frames += ref.Frames()
	}
	return elements, frames
}

// decoratedInputs sums the decorators' input counts.
func decoratedInputs(d *pipes.DSMS) int64 {
	var n float64
	for _, m := range d.Monitors() {
		v, _ := m.Get("input_count")
		n += v
	}
	return int64(n)
}

// schedCounters returns the scheduler's steal count and the largest
// task backlog it observed.
func schedCounters(d *pipes.DSMS) (steals int64, maxBacklog int) {
	steals = d.Scheduler.Counters().Snapshot()["sched.steals"]
	for _, ts := range d.Scheduler.Stats() {
		maxBacklog = max(maxBacklog, ts.MaxBacklog)
	}
	return steals, maxBacklog
}

// memPeaks tracks the memory manager's usage while a run is live.
type memPeaks struct {
	d     *pipes.DSMS
	mu    sync.Mutex
	total int
	join  int
}

func (p *memPeaks) probe() {
	st := p.d.Memory.Stats()
	join := 0
	for _, s := range st.Subs {
		if strings.HasPrefix(s.Name, "⋈") {
			join += s.Usage
		}
	}
	p.mu.Lock()
	p.total = max(p.total, st.TotalUsage)
	p.join = max(p.join, join)
	p.mu.Unlock()
}

func (p *memPeaks) read() (total, join int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total, p.join
}

// shedEvents sums the memory manager's shed events.
func shedEvents(d *pipes.DSMS) int64 {
	var n int64
	for _, s := range d.Memory.Stats().Subs {
		n += s.ShedEvents
	}
	return n
}

// endpointScrape is one in-process pass over the telemetry documents.
type endpointScrape struct {
	MetricsMS float64
	Series    int
}

// scrapeEndpoints fetches /metrics, /flight.json, /bottleneck.json and
// /traces.json once from the engine's handler (no socket needed), checks
// each answers 200, and counts the exposition's sample lines.
func scrapeEndpoints(d *pipes.DSMS, c *checks, sp *spans, parent int) endpointScrape {
	h := d.TelemetryHandler()
	var out endpointScrape
	for _, path := range []string{"/metrics", "/flight.json", "/bottleneck.json", "/traces.json"} {
		id := sp.begin("telemetry", "GET "+path, "main", parent)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		el := time.Since(t0)
		sp.end(id)
		c.checkf("telemetry.status"+path, rec.Code == http.StatusOK, "GET %s: HTTP %d", path, rec.Code)
		if path == "/metrics" {
			out.MetricsMS = float64(el.Nanoseconds()) / 1e6
			out.Series = countSeries(rec.Body.Bytes())
		}
	}
	return out
}

// countSeries counts the sample lines of a Prometheus text exposition.
func countSeries(body []byte) int {
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// sharedFrac is shared ÷ (new + shared) over a set of registrations.
func sharedFrac(newNodes, shared int) float64 {
	if newNodes+shared == 0 {
		return 0
	}
	return float64(shared) / float64(newNodes+shared)
}

// groupedOps returns the names of the GroupBy operators built for queries
// with a GROUP BY clause, from the registrations' created nodes.
func groupedOps(d *pipes.DSMS) map[string]bool {
	out := map[string]bool{}
	for _, q := range d.Queries() {
		if !strings.Contains(strings.ToUpper(q.Text), "GROUP BY") {
			continue
		}
		for _, p := range q.Instance.Created {
			if m, ok := p.(interface{ Inner() pipes.Pipe }); ok {
				p = m.Inner()
			}
			if strings.HasSuffix(fmt.Sprintf("%T", p), ".GroupBy") {
				out[p.Name()] = true
			}
		}
	}
	return out
}
