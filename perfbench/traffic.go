package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pipes"
	"pipes/internal/traffic"
)

// trafficReadings is the input size of one traffic-monitored repetition.
const trafficReadings = 80_000

var trafficQueries = []query{
	{"avg-hov-speed", traffic.QueryAvgHOVSpeed},
	{"avg-section-speed", traffic.QueryAvgSectionSpeed},
}

// query is one standing query of a closed-loop workload.
type query struct{ Label, CQL string }

func queryLabels(qs []query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Label
	}
	return out
}

// genTraffic pre-generates the FSP loop-detector readings of one seed.
func genTraffic(seed int64, n int) []pipes.Element {
	const detectors = 100
	g := traffic.NewGenerator(traffic.Config{Seed: seed, Detectors: detectors, MaxReadings: n})
	out := make([]pipes.Element, 0, n)
	for {
		r, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, pipes.At(r.Tuple(detectors), r.Timestamp))
	}
}

// closedRep is one repetition of a closed-loop workload.
type closedRep struct {
	Traced bool
	Setup  time.Duration
	Phase  phase
	Inputs int
	Layers map[string]float64
}

func (r closedRep) nsPerElement() float64 {
	return float64(r.Phase.Wall.Nanoseconds()) / float64(r.Inputs)
}

func (r closedRep) cpuUSPerElement() float64 { return r.Phase.CPU * 1e6 / float64(r.Inputs) }

// referenceDigests runs qs once over the inputs registered by register
// on a single worker with no monitoring and no checkpoints — the output
// oracle every measured run is compared against.
func referenceDigests(qs []query, register func(d *pipes.DSMS)) ([]digest, error) {
	d := pipes.NewDSMS(pipes.Config{Workers: 1, DisableFlight: true})
	register(d)
	sinks, _, _, err := registerQueries(d, qs, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	d.Start()
	d.Wait()
	out := make([]digest, len(qs))
	for i, s := range sinks {
		out[i] = s.wait()
	}
	d.Stop()
	return out, nil
}

// scraper polls the live engine's /metrics at 1 Hz, as a collector in a
// monitored deployment does, for the whole measured phase. busy is held
// for each scrape, so detach can wait out one in flight before the
// engine's endpoint closes.
type scraper struct {
	addr   atomic.Pointer[string]
	busy   sync.Mutex
	client *http.Client
	c      *checks
	sp     *spans
	traced atomic.Bool
	stop   chan struct{}
	done   chan struct{}
	ms     []float64 // owned by the loop goroutine until close
	series int
}

func startScraper(c *checks, sp *spans) *scraper {
	s := &scraper{
		client: &http.Client{Timeout: 10 * time.Second},
		c:      c, sp: sp,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *scraper) loop() {
	defer close(s.done)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.scrape()
		}
	}
}

// detach stops scraping the current engine and waits for a scrape in
// flight to finish.
func (s *scraper) detach() {
	s.addr.Store(nil)
	s.busy.Lock()
	s.busy.Unlock()
}

func (s *scraper) scrape() {
	s.busy.Lock()
	defer s.busy.Unlock()
	addr := s.addr.Load()
	if addr == nil {
		return
	}
	var sp *spans
	if s.traced.Load() {
		sp = s.sp
	}
	id := sp.begin("telemetry", "GET /metrics", "scraper", 0)
	t0 := time.Now()
	resp, err := s.client.Get("http://" + *addr + "/metrics")
	if err != nil {
		sp.end(id)
		s.c.check("telemetry.scrape", false, err.Error())
		return
	}
	body, rerr := readAll(resp)
	el := time.Since(t0)
	sp.end(id)
	if !s.c.checkf("telemetry.scrape", rerr == nil && resp.StatusCode == http.StatusOK,
		"GET /metrics: HTTP %d %v", resp.StatusCode, rerr) {
		return
	}
	s.ms = append(s.ms, float64(el.Nanoseconds())/1e6)
	s.series = countSeries(body)
}

func (s *scraper) close() ([]float64, int) {
	close(s.stop)
	<-s.done
	return s.ms, s.series
}

func runTraffic(e *env) (*result, error) {
	elems := genTraffic(e.seed, trafficReadings)
	register := func(d *pipes.DSMS) {
		d.RegisterStream("traffic", pipes.NewSliceSource("traffic", elems), 1000)
	}
	ref, err := referenceDigests(trafficQueries, register)
	if err != nil {
		return nil, err
	}
	scr := startScraper(e.c, e.sp)
	var reps []closedRep
	deadline := time.Now().Add(e.seconds)
	for i := 0; time.Now().Before(deadline) || len(reps) < 2; i++ {
		traced := e.trace && i%2 == 1
		scr.traced.Store(traced)
		rep, err := trafficRep(e, elems, register, ref, scr, traced)
		if err != nil {
			scr.close()
			return nil, err
		}
		reps = append(reps, rep)
	}
	scrapeMS, series := scr.close()
	res := closedResult(e, reps)
	res.layer["telemetry.scrape_ms"] = median(scrapeMS)
	res.layer["telemetry.series"] = float64(series)
	res.notes = append(res.notes, fmt.Sprintf("scrapes: %d at 1 Hz, median %.3f ms", len(scrapeMS), median(scrapeMS)))
	return res, nil
}

func trafficRep(e *env, elems []pipes.Element, register func(*pipes.DSMS), ref []digest, scr *scraper, traced bool) (closedRep, error) {
	var sp *spans
	if traced {
		sp = e.sp
	}
	runtime.GC()
	rep := closedRep{Traced: traced, Inputs: len(elems), Layers: map[string]float64{}}
	t0 := time.Now()
	root := sp.begin("engine", "traffic-monitored rep", "main", 0)
	d := pipes.NewDSMS(pipes.Config{Workers: e.nproc, TelemetryAddr: "127.0.0.1:0"})
	register(d)
	sinks, nNew, nShared, err := registerQueries(d, trafficQueries, sp, root)
	if err != nil {
		return rep, err
	}
	rep.Setup = time.Since(t0)
	var mem *memPeaks
	var probe func()
	if traced {
		mem = &memPeaks{d: d}
		probe = mem.probe
	}
	w := openWindow(probe)
	run := sp.begin("sched", "Start→Wait", "main", root)
	d.Start()
	addr := d.TelemetryAddr()
	scr.addr.Store(&addr)
	d.Wait()
	got := make([]digest, len(sinks))
	for i, s := range sinks {
		got[i] = s.wait()
	}
	sp.end(run)
	rep.Phase = w.close()
	scr.detach()

	compareOutputs(e.c, "traffic", queryLabels(trafficQueries), got, ref)
	if traced {
		engineLayers(d, rep.Layers, len(elems), mem, nNew, nShared)
		scrapeEndpoints(d, e.c, sp, root)
	}
	sp.end(root)
	d.Stop()
	return rep, nil
}

// registerQueries registers qs on d, each under its own span, and
// subscribes a digesting sink to every result stream.
func registerQueries(d *pipes.DSMS, qs []query, sp *spans, parent int) (sinks []*digestSink, nNew, nShared int, err error) {
	for _, q := range qs {
		id := sp.begin("optimizer", "RegisterQuery "+q.Label, "main", parent)
		rq, err := d.RegisterQuery(q.CQL)
		sp.end(id)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("register %s: %w", q.Label, err)
		}
		nNew += rq.Instance.NewNodes
		nShared += rq.Instance.SharedNodes
		s := newDigestSink(q.Label)
		if err := rq.Subscribe(s); err != nil {
			return nil, 0, 0, err
		}
		sinks = append(sinks, s)
	}
	return sinks, nNew, nShared, nil
}

// engineLayers reads the per-layer counters of a finished closed-loop
// run into out.
func engineLayers(d *pipes.DSMS, out map[string]float64, inputs int, mem *memPeaks, nNew, nShared int) {
	elements, frames := edgeCounters(d)
	if frames > 0 {
		out["pubsub.elements_per_frame"] = float64(elements) / float64(frames)
	} else if hops := decoratedInputs(d); hops > 0 {
		// The flight recorder counts frames only; elements that crossed
		// the decorated operators without any frame went the scalar lane,
		// one element per hop.
		elements = hops
		out["pubsub.elements_per_frame"] = 1
	}
	out["pubsub.edge_elements_per_input"] = float64(elements) / float64(inputs)
	for kind, ns := range opSelfNS(d, inputs, groupedOps(d)) {
		out["ops."+kind+".ns_per_element"] = ns
	}
	if ns, ok := out["ops.join.ns_per_element"]; ok {
		out["sweeparea.join.ns_per_element"] = ns
		delete(out, "ops.join.ns_per_element")
	}
	steals, backlog := schedCounters(d)
	out["sched.steals"] = float64(steals)
	out["sched.max_backlog"] = float64(backlog)
	if mem != nil {
		total, join := mem.read()
		out["memory.usage_bytes_peak"] = float64(total)
		out["sweeparea.join.state_bytes_peak"] = float64(join)
	}
	out["memory.shed_events"] = float64(shedEvents(d))
	out["optimizer.operators"] = float64(d.Optimizer.OperatorCount())
	out["optimizer.shared_frac"] = sharedFrac(nNew, nShared)
	out["metadata.decorators"] = float64(len(d.Monitors()))
}

// closedResult folds the repetitions of a closed-loop workload into its
// metrics: medians over untraced repetitions for the end-to-end metrics,
// medians over traced repetitions for the per-layer ones.
func closedResult(e *env, reps []closedRep) *result {
	res := newResult()
	var setup, ns, cpu, heap, tracedNS, alloc, gc []float64
	layer := map[string][]float64{}
	for _, r := range reps {
		setup = append(setup, r.Setup.Seconds())
		if r.Traced {
			tracedNS = append(tracedNS, r.nsPerElement())
			for k, v := range r.Layers {
				layer[k] = append(layer[k], v)
			}
			continue
		}
		// The runtime counters are read on the untraced repetitions, the
		// configuration the end-to-end metrics measure.
		alloc = append(alloc, r.Phase.AllocBytes/float64(r.Inputs))
		gc = append(gc, r.Phase.GCCPUFrac)
		ns = append(ns, r.nsPerElement())
		cpu = append(cpu, r.cpuUSPerElement())
		heap = append(heap, r.Phase.HeapPeakMB)
	}
	res.setE2E("setup_s", setup)
	res.setE2E("ns_per_element", ns)
	res.setE2E("cpu_us_per_element", cpu)
	res.setE2E("heap_peak_mb", heap)
	if e.trace {
		for k, vs := range layer {
			res.layer[k] = median(vs)
		}
		res.layer["runtime.alloc_bytes_per_element"] = median(alloc)
		res.layer["runtime.gc_cpu_frac"] = median(gc)
		res.layer["trace.overhead_frac"] = median(tracedNS)/median(ns) - 1
	}
	res.notes = append(res.notes, fmt.Sprintf("repetitions: %d (%d traced), %d inputs each",
		len(reps), len(tracedNS), reps[0].Inputs))
	return res
}
