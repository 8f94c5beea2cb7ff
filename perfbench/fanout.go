package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pipes"
	"pipes/internal/nexmark"
)

const (
	// nominalRate is phase 1's fixed input rate in bids/s, recorded in
	// BENCHMARK.json's workload description.
	nominalRate = 4000
	// The phase-2 bisection searches [minRate, maxRate] bids/s in log
	// space until the bracket is within rateResolution.
	minRate        = 1000
	maxRate        = 256000
	rateResolution = 1.05
	probes         = 7 // ⌈log2(ln(256)/ln(1.05))⌉ bisection steps
	// deliveryLimit is the p99 delivery latency a sustainable rate meets.
	deliveryLimit = 100 * time.Millisecond
	// drainGrace is how long after the last send every query must have
	// delivered its end-of-stream for a probe to count as keeping up.
	drainGrace = 250 * time.Millisecond
	// stallTimeout bounds how long past its last due time a stream may
	// take to drain before the engine counts as stalled.
	stallTimeout = 30 * time.Second
	// minSubmits is the least number of churn submits in phase 1.
	minSubmits = 100
	// feedCap is the ChanSource buffer: it absorbs the scheduler's poll
	// jitter; when it fills, the generator blocks and the wait shows up
	// as generator lateness.
	feedCap = 1024
	// poolBids is the number of distinct pre-generated bids the paced
	// streams cycle through.
	poolBids = 80_000
)

var tenants = []pipes.TenantConfig{
	{Name: "alice", Token: "alice-token", Quota: pipes.TenantQuota{MaxQueries: 32}},
	{Name: "bob", Token: "bob-token", Quota: pipes.TenantQuota{MaxQueries: 32}},
}

// standing is one tenant's standing query of the fan-out workload.
type standing struct {
	Tenant int
	Label  string
	CQL    string
}

// fanoutQueries are two tenants' eight overlapping standing queries each:
// shared scan, window and filter subplans, projections that keep gen, a
// grouped count and MAX(gen) aggregates.
var fanoutQueries = []standing{
	{0, "a-price-950", `SELECT auction, price, gen FROM bids [NOW] WHERE price > 950`},
	{0, "a-auction-950", `SELECT auction, gen FROM bids [NOW] WHERE price > 950`},
	{0, "a-bidder-980", `SELECT bidder, price, gen FROM bids [NOW] WHERE price > 980`},
	{0, "a-count-by-auction", `SELECT auction, COUNT(*) AS n FROM bids [RANGE 60000 SLIDE 60000] GROUP BY auction`},
	{0, "a-max-gen-1s", `SELECT MAX(gen) AS gen FROM bids [RANGE 1000 SLIDE 1000]`},
	{0, "a-eur-990", `SELECT auction, price * 0.908 AS eur, gen FROM bids [NOW] WHERE price > 990`},
	{0, "a-price-900", `SELECT auction, price, gen FROM bids [NOW] WHERE price > 900`},
	{0, "a-max-count-1s", `SELECT MAX(gen) AS gen, COUNT(*) AS n FROM bids [RANGE 1000 SLIDE 1000]`},
	{1, "b-price-950", `SELECT auction, price, gen FROM bids [NOW] WHERE price > 950`},
	{1, "b-auction-980", `SELECT auction, gen FROM bids [NOW] WHERE price > 980`},
	{1, "b-bidder-950", `SELECT bidder, gen FROM bids [NOW] WHERE price > 950`},
	{1, "b-count-by-auction", `SELECT auction, COUNT(*) AS n FROM bids [RANGE 60000 SLIDE 60000] GROUP BY auction`},
	{1, "b-max-gen-1s", `SELECT MAX(gen) AS gen FROM bids [RANGE 1000 SLIDE 1000]`},
	{1, "b-bidder-990", `SELECT auction, bidder, gen FROM bids [NOW] WHERE price > 990`},
	{1, "b-auction-900", `SELECT auction, gen FROM bids [NOW] WHERE price > 900`},
	{1, "b-max-gen-5s", `SELECT MAX(gen) AS gen FROM bids [RANGE 5000 SLIDE 5000]`},
}

// genPool pre-generates the seed's bid pool.
func genPool(seed int64) []pipes.Element {
	g := nexmark.NewGenerator(nexmark.Config{Seed: seed}, nil)
	out := make([]pipes.Element, 0, poolBids)
	for len(out) < poolBids {
		ev, _ := g.Next()
		if ev.Kind == nexmark.EvBid {
			out = append(out, pipes.At(nexmark.BidTuple(ev.Bid), ev.Time))
		}
	}
	return out
}

// pacedStream stamps n bids for a stream paced at rate bids/s: bid i is
// due i/rate seconds after the stream starts and carries that due
// offset in ns as gen. Pool bids are reused with timestamps shifted past
// the previous cycle, so application time never goes backwards.
func pacedStream(pool []pipes.Element, n int, rate float64) ([]pipes.Element, []time.Duration) {
	elems := make([]pipes.Element, n)
	due := make([]time.Duration, n)
	span := pool[len(pool)-1].Start + 1
	for i := range elems {
		src := pool[i%len(pool)]
		shift := pipes.Time(i/len(pool)) * span
		t := src.Value.(pipes.Tuple)
		due[i] = time.Duration(float64(i) * 1e9 / rate)
		v := pipes.Tuple{"auction": t["auction"], "bidder": t["bidder"], "price": t["price"], "gen": int64(due[i])}
		elems[i] = pipes.At(v, src.Start+shift)
	}
	return elems, due
}

// api issues authenticated control-plane requests over one keep-alive
// connection, counting each as a checked operation.
type api struct {
	base   string
	client *http.Client
	c      *checks
	sp     *spans
	track  string
}

func newAPI(base string, c *checks, sp *spans, track string) *api {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &api{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, c: c, sp: sp, track: track}
}

func (a *api) close() { a.client.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into out; it returns
// the raw body and the round-trip time, and records the status check.
func (a *api) do(check, method, path, token string, body any, want int, out any) ([]byte, time.Duration, bool) {
	var rd io.Reader
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		a.c.check(check, false, err.Error())
		return nil, 0, false
	}
	req.Header.Set("Authorization", "Bearer "+token)
	id := a.sp.begin("service", method+" "+routeOf(path), a.track, 0)
	t0 := time.Now()
	resp, err := a.client.Do(req)
	if err != nil {
		a.sp.end(id)
		a.c.check(check, false, err.Error())
		return nil, 0, false
	}
	raw, err := readAll(resp)
	rtt := time.Since(t0)
	a.sp.end(id)
	if !a.c.checkf(check, err == nil && resp.StatusCode == want,
		"%s %s: HTTP %d (want %d) %v %.300s", method, routeOf(path), resp.StatusCode, want, err, compact(raw)) {
		return raw, rtt, false
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			a.c.check(check+".decode", false, err.Error())
			return raw, rtt, false
		}
	}
	return raw, rtt, true
}

// compact returns raw JSON without its indentation, for messages.
func compact(raw []byte) []byte {
	var b bytes.Buffer
	if json.Compact(&b, raw) != nil {
		return raw
	}
	return b.Bytes()
}

// routeOf strips query ids and parameters for span names.
func routeOf(path string) string {
	path, _, _ = strings.Cut(path, "?")
	rest, ok := strings.CutPrefix(path, "/v1/queries/")
	switch {
	case !ok || rest == "":
		return path
	case strings.HasSuffix(rest, "/results"):
		return "/v1/queries/{id}/results"
	}
	return "/v1/queries/{id}"
}

type queryInfo struct {
	ID              string `json:"id"`
	NewOperators    int    `json:"new_operators"`
	SharedOperators int    `json:"shared_operators"`
	Buffered        int    `json:"buffered"`
}

type resultPage struct {
	Results []struct {
		Seq   uint64          `json:"seq"`
		Start int64           `json:"start"`
		End   int64           `json:"end"`
		Value json.RawMessage `json:"value"`
	} `json:"results"`
	Dropped int64  `json:"dropped"`
	Next    uint64 `json:"next"`
	Done    bool   `json:"done"`
}

// stream is the reader's view of one standing query.
type stream struct {
	q      standing
	id     string
	cursor uint64
	done   bool
	dig    *digester
}

// fanoutEngine is one running engine with the standing queries submitted.
type fanoutEngine struct {
	d       *pipes.DSMS
	feed    chan pipes.Element
	ctl     *api
	streams []*stream
	nNew    int
	nShared int
}

// bootFanout starts an engine with the service on loopback and submits
// every standing query over HTTP.
func bootFanout(e *env, monitor bool, sp *spans) (*fanoutEngine, error) {
	fe := &fanoutEngine{feed: make(chan pipes.Element, feedCap)}
	fe.d = pipes.NewDSMS(pipes.Config{
		ServiceAddr: "127.0.0.1:0", ServiceTenants: tenants, MonitorQueries: monitor,
	})
	fe.d.RegisterStream("bids", pipes.NewChanSource("bids", fe.feed), nominalRate)
	fe.d.Start()
	fe.ctl = newAPI("http://"+fe.d.ServiceAddr(), e.c, sp, "control")
	for _, q := range fanoutQueries {
		var info queryInfo
		_, _, ok := fe.ctl.do("service.submit", http.MethodPost, "/v1/queries", tenants[q.Tenant].Token,
			map[string]any{"cql": q.CQL, "buffer_bytes": 4 << 20}, http.StatusCreated, &info)
		if !ok {
			fe.stop()
			return nil, fmt.Errorf("submit %s failed: %v", q.Label, e.c.report())
		}
		fe.nNew += info.NewOperators
		fe.nShared += info.SharedOperators
		fe.streams = append(fe.streams, &stream{q: q, id: info.ID, dig: newDigester()})
	}
	return fe, nil
}

func (fe *fanoutEngine) stop() {
	fe.ctl.close()
	fe.d.Stop()
}

// loadStats is what one paced stream measured.
type loadStats struct {
	delivery  []float64 // ms, per result carrying gen
	late      []float64 // ms, per bid
	pollRTT   []float64 // ms
	polls     int
	empty     int
	results   int
	bytes     int
	dropped   int64
	buffered  []int // summed buffered results, sampled by the control loop
	submitMS  []float64
	submits   int
	allDone   bool
	doneAfter time.Duration // end of stream → last query done
	wall      time.Duration // first due time → last query done
}

// drive paces elems into the engine on the generator goroutine while one
// reader connection drains every query by cursor long-poll and the
// control connection samples buffered results (and, with churn, submits
// and kills one query per churn period). It returns once every query has
// delivered end-of-stream or the grace after the last send has passed.
func (fe *fanoutEngine) drive(e *env, sp *spans, elems []pipes.Element, due []time.Duration,
	churn time.Duration, grace time.Duration) loadStats {
	var st loadStats
	reader := newAPI(fe.ctl.base, e.c, sp, "reader")
	defer reader.close()

	// The control loop runs while the stream is live: the generator closes
	// lastSent after its last bid and closes the feed only once the control
	// loop has returned, so no query is submitted to an ended stream.
	lastSent := make(chan struct{})
	ctlDone := make(chan struct{})
	genDone := make(chan time.Time, 1)
	quit := make(chan struct{}) // closed when the engine has stalled
	// The control goroutine owns st.buffered, st.submitMS and st.submits
	// until wg.Wait; the generator owns st.late.
	var wg sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond)

	wg.Add(1)
	go func() { // generator: open loop, sends each bid at its due time
		defer wg.Done()
		late := make([]float64, 0, len(elems))
	send:
		for i := 0; i < len(elems); {
			now := time.Since(t0)
			if now < due[i] {
				time.Sleep(due[i] - now)
				continue
			}
			j := i
			for j < len(elems) && due[j] <= now {
				j++
			}
			id := sp.begin("pubsub", "send", "generator", 0)
			for k := i; k < j; k++ {
				select {
				case fe.feed <- elems[k]:
				case <-quit:
					sp.end(id)
					break send
				}
				late = append(late, float64((time.Since(t0)-due[k]).Nanoseconds())/1e6)
			}
			sp.end(id)
			i = j
		}
		close(lastSent)
		<-ctlDone
		close(fe.feed)
		st.late = late
		genDone <- time.Now()
	}()

	wg.Add(1)
	go func() { // control connection: buffered sampling and churn
		defer wg.Done()
		defer close(ctlDone)
		period := 100 * time.Millisecond
		if churn > 0 {
			period = min(churn, period)
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		var churnID string
		k := 0
		for {
			select {
			case <-lastSent:
				if churnID != "" {
					fe.ctl.do("service.kill", http.MethodDelete, "/v1/queries/"+churnID, tenants[0].Token, nil, http.StatusOK, nil)
				}
				return
			case <-tick.C:
			}
			sum := 0
			for _, t := range tenants {
				var list struct {
					Queries []queryInfo `json:"queries"`
				}
				if _, _, ok := fe.ctl.do("service.list", http.MethodGet, "/v1/queries", t.Token, nil, http.StatusOK, &list); ok {
					for _, q := range list.Queries {
						sum += q.Buffered
					}
				}
			}
			st.buffered = append(st.buffered, sum)
			if churn <= 0 {
				continue
			}
			cql := fmt.Sprintf(`SELECT auction, gen FROM bids [NOW] WHERE price > %d`, 500+k%400)
			k++
			var info queryInfo
			_, rtt, ok := fe.ctl.do("service.submit", http.MethodPost, "/v1/queries", tenants[0].Token,
				map[string]any{"cql": cql, "buffer_bytes": 64 << 10}, http.StatusCreated, &info)
			st.submits++
			if ok {
				st.submitMS = append(st.submitMS, float64(rtt.Nanoseconds())/1e6)
			}
			if churnID != "" {
				fe.ctl.do("service.kill", http.MethodDelete, "/v1/queries/"+churnID, tenants[0].Token, nil, http.StatusOK, nil)
			}
			churnID = ""
			if ok {
				churnID = info.ID
			}
		}
	}()

	// Reader: this goroutine, one keep-alive connection, round robin.
	var deadline time.Time
	hardStop := t0.Add(due[len(due)-1] + stallTimeout)
	emptyStreak := 0
	for {
		if time.Now().After(hardStop) {
			e.c.check("service.stalled", false, fmt.Sprintf("stream not drained %v after its last due time", stallTimeout))
			close(quit)
			break
		}
		if deadline.IsZero() {
			select {
			case end := <-genDone:
				deadline = end.Add(grace)
				genDone <- end
			default:
			}
		} else if time.Now().After(deadline) {
			break
		}
		active := 0
		for _, s := range fe.streams {
			if s.done {
				continue
			}
			active++
			wait := "0s"
			if emptyStreak >= len(fe.streams) {
				wait = "5ms"
			}
			var page resultPage
			raw, rtt, ok := reader.do("service.poll", http.MethodGet,
				fmt.Sprintf("/v1/queries/%s/results?after=%d&max=4096&wait=%s", s.id, s.cursor, wait),
				tenants[s.q.Tenant].Token, nil, http.StatusOK, &page)
			recv := time.Now()
			st.polls++
			if !ok {
				continue
			}
			st.pollRTT = append(st.pollRTT, float64(rtt.Nanoseconds())/1e6)
			if len(page.Results) == 0 {
				st.empty++
				emptyStreak++
			} else {
				emptyStreak = 0
				st.bytes += len(raw)
			}
			st.dropped += page.Dropped
			for _, r := range page.Results {
				s.dig.addDelivered(r.Start, r.End, r.Value)
				if g, ok := genOf(r.Value); ok {
					st.delivery = append(st.delivery, float64(recv.Sub(t0.Add(time.Duration(g))).Nanoseconds())/1e6)
				}
			}
			st.results += len(page.Results)
			s.cursor = page.Next
			if page.Done {
				s.done = true
			}
		}
		if active == 0 {
			st.allDone = true
			break
		}
	}
	st.wall = time.Since(t0)
	end := <-genDone
	st.doneAfter = time.Since(end)
	wg.Wait()
	return st
}

// genOf extracts the "gen" field of a result value without decoding the
// rest of it.
func genOf(v json.RawMessage) (float64, bool) {
	i := bytes.Index(v, []byte(`"gen":`))
	if i < 0 {
		return 0, false
	}
	rest := v[i+len(`"gen":`):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false
	}
	g, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:j])), 64)
	return g, err == nil
}

// fanoutReference digests every standing query over the phase-1 stream
// on a single worker, no monitoring, no checkpoints, no service.
func fanoutReference(elems []pipes.Element) ([]digest, error) {
	qs := make([]query, len(fanoutQueries))
	for i, q := range fanoutQueries {
		qs[i] = query{q.Label, q.CQL}
	}
	return referenceDigests(qs, func(d *pipes.DSMS) {
		d.RegisterStream("bids", pipes.NewSliceSource("bids", elems), nominalRate)
	})
}

// nominalPhase runs phase 1: the standing queries at the nominal rate
// with submit/kill churn, output checks against the reference, and the
// measurements. traced turns on the decorators and spans.
func nominalPhase(e *env, elems []pipes.Element, due []time.Duration, ref []digest, dur time.Duration, traced bool) (map[string]float64, loadStats, phase, error) {
	var sp *spans
	if traced {
		sp = e.sp
	}
	out := map[string]float64{}
	runtime.GC()
	t0 := time.Now()
	root := sp.begin("engine", "service-fanout nominal phase", "main", 0)
	fe, err := bootFanout(e, traced, sp)
	if err != nil {
		return nil, loadStats{}, phase{}, err
	}
	out["setup_s"] = time.Since(t0).Seconds()
	var mem *memPeaks
	var probe func()
	if traced {
		mem = &memPeaks{d: fe.d}
		probe = mem.probe
	}
	churn := dur / (minSubmits + 20)
	w := openWindow(probe)
	st := fe.drive(e, sp, elems, due, churn, 10*time.Second)
	ph := w.close()
	e.c.checkf("service.end_of_stream", st.allDone, "queries still open %v after the last send", st.doneAfter)
	e.c.checkf("service.churn_submits", st.submits >= minSubmits, "%d churn submits, want ≥ %d", st.submits, minSubmits)

	got := make([]digest, len(fe.streams))
	labels := make([]string, len(fe.streams))
	for i, s := range fe.streams {
		got[i], labels[i] = s.dig.d, s.q.Label
	}
	compareOutputs(e.c, "service", labels, got, ref)
	if traced {
		engineLayers(fe.d, out, len(elems), mem, fe.nNew, fe.nShared)
		es := scrapeEndpoints(fe.d, e.c, sp, root)
		out["telemetry.scrape_ms"] = es.MetricsMS
		out["telemetry.series"] = float64(es.Series)
	}
	sp.end(root)
	fe.stop()
	return out, st, ph, nil
}

// sustainable probes one rate: a fresh engine, the same standing queries,
// a paced stream of probeDur; it keeps up when the p99 delivery latency
// is within the limit, the generator never ran later than the limit, and
// every query delivered end-of-stream within drainGrace of the last send.
func sustainable(e *env, pool []pipes.Element, rate float64, probeDur time.Duration) (bool, timing, time.Duration, error) {
	n := int(rate * probeDur.Seconds())
	elems, due := pacedStream(pool, n, rate)
	runtime.GC()
	t0 := time.Now()
	fe, err := bootFanout(e, false, nil)
	if err != nil {
		return false, timing{}, 0, err
	}
	setup := time.Since(t0)
	defer fe.stop()
	st := fe.drive(e, nil, elems, due, 0, drainGrace)
	d := summarize(st.delivery)
	limit := float64(deliveryLimit.Milliseconds())
	ok := st.allDone && quantile(st.late, 1) <= limit && quantile(st.delivery, 0.99) <= limit
	return ok, d, setup, nil
}

func runFanout(e *env) (*result, error) {
	pool := genPool(e.seed)
	res := newResult()
	if e.trace {
		// The traced run repeats phase 1 untraced and traced; the
		// bisection is left to the untraced run.
		dur := e.seconds / 2
		elems, due := pacedStream(pool, int(nominalRate*dur.Seconds()), nominalRate)
		ref, err := fanoutReference(elems)
		if err != nil {
			return nil, err
		}
		_, _, base, err := nominalPhase(e, elems, due, ref, dur, false)
		if err != nil {
			return nil, err
		}
		layers, st, tr, err := nominalPhase(e, elems, due, ref, dur, true)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			if k != "setup_s" {
				res.layer[k] = v
			}
		}
		perElem := func(p phase) float64 { return p.CPU * 1e6 / float64(len(elems)) }
		res.layer["trace.overhead_frac"] = perElem(tr)/perElem(base) - 1
		res.layer["runtime.alloc_bytes_per_element"] = base.AllocBytes / float64(len(elems))
		res.layer["runtime.gc_cpu_frac"] = base.GCCPUFrac
		serviceLayers(res.layer, st)
		return res, nil
	}

	// Phase 1 (40% of the run): nominal rate with churn.
	dur1 := e.seconds * 2 / 5
	elems, due := pacedStream(pool, int(nominalRate*dur1.Seconds()), nominalRate)
	ref, err := fanoutReference(elems)
	if err != nil {
		return nil, err
	}
	m, st, ph, err := nominalPhase(e, elems, due, ref, dur1, false)
	if err != nil {
		return nil, err
	}
	del := summarize(st.delivery)
	sub := summarize(st.submitMS)
	setups := []float64{m["setup_s"]}
	res.e2e["cpu_us_per_element"] = ph.CPU * 1e6 / float64(len(elems))
	res.samples["cpu_us_per_element"] = 1
	res.e2e["heap_peak_mb"] = ph.HeapPeakMB
	res.samples["heap_peak_mb"] = 1
	res.info["delivery_p50_ms"] = del.P50
	res.info["delivery_p99_ms"] = quantile(st.delivery, 0.99)
	res.samples["delivery_p50_ms"], res.samples["delivery_p99_ms"] = del.N, del.N
	res.info["submit_p50_ms"] = sub.P50
	res.info["submit_p90_ms"] = quantile(st.submitMS, 0.90)
	res.samples["submit_p50_ms"], res.samples["submit_p90_ms"] = sub.N, sub.N
	if produced := float64(st.results) + float64(st.dropped); produced > 0 {
		res.info["shed_frac"] = float64(st.dropped) / produced
	}
	lateP99, lateMax := quantile(st.late, 0.99), quantile(st.late, 1)
	res.notes = append(res.notes,
		fmt.Sprintf("phase 1: %d bids at %d bids/s, %d results, %d churn submits, generator late p99 %.3f ms max %.3f ms",
			len(elems), nominalRate, st.results, st.submits, lateP99, lateMax),
		fmt.Sprintf("delivery: p50 %.3f ms, %s %.3f ms (n=%d)", del.P50, del.TailQ, del.Tail, del.N))

	// Phase 2 (35%): bisection in log space between fixed bounds.
	probeDur := e.seconds * 7 / 20 / probes
	lo, hi := float64(minRate), float64(maxRate)
	var probeNotes []string
	for hi/lo > rateResolution {
		mid := math.Sqrt(lo * hi)
		// Each probe spends about half a second booting and draining.
		ok, d, setup, err := sustainable(e, pool, mid, max(probeDur-500*time.Millisecond, 200*time.Millisecond))
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		probeNotes = append(probeNotes, fmt.Sprintf("%.0f:%v(p99 %.1fms)", mid, ok, d.Tail))
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.info["sustainable_rate_eps"] = lo
	res.notes = append(res.notes, fmt.Sprintf("bisection probes (rate:ok): %v", probeNotes))

	// Phase 3 (the rest): saturation drains. The generator offers a fixed
	// number of bids as fast as the source takes them; the wall time until
	// every query has delivered its end-of-stream, per bid, is the service
	// path's saturation cost.
	var sat []float64
	until := time.Now().Add(e.seconds - dur1 - probeDur*probes)
	for len(sat) < 3 || time.Now().Before(until) {
		ns, setup, err := saturate(e, pool)
		if err != nil {
			return nil, err
		}
		sat = append(sat, ns)
		setups = append(setups, setup.Seconds())
	}
	res.setE2E("ns_per_element", sat)
	res.setE2E("setup_s", setups)
	return res, nil
}

// saturationBids is the input of one saturation drain.
const saturationBids = 40_000

// saturate runs one saturation drain on a fresh engine and returns its
// wall ns per bid and the engine's setup time.
func saturate(e *env, pool []pipes.Element) (float64, time.Duration, error) {
	elems, due := pacedStream(pool, saturationBids, math.Inf(1))
	runtime.GC()
	t0 := time.Now()
	fe, err := bootFanout(e, false, nil)
	if err != nil {
		return 0, 0, err
	}
	defer fe.stop()
	setup := time.Since(t0)
	st := fe.drive(e, nil, elems, due, 0, 30*time.Second)
	e.c.checkf("service.saturation_end_of_stream", st.allDone, "queries still open %v after the last send", st.doneAfter)
	return float64(st.wall.Nanoseconds()) / saturationBids, setup, nil
}

// serviceLayers fills the service and load-generator rows from phase 1.
func serviceLayers(out map[string]float64, st loadStats) {
	out["service.poll_rtt_p50_ms"] = quantile(st.pollRTT, 0.5)
	out["service.poll_rtt_p99_ms"] = quantile(st.pollRTT, 0.99)
	if st.polls > 0 {
		out["service.empty_poll_frac"] = float64(st.empty) / float64(st.polls)
	}
	if full := st.polls - st.empty; full > 0 {
		out["service.results_per_page"] = float64(st.results) / float64(full)
	}
	if st.results > 0 {
		out["service.bytes_per_result"] = float64(st.bytes) / float64(st.results)
	}
	bm := 0
	for _, b := range st.buffered {
		bm = max(bm, b)
	}
	out["service.buffered_max"] = float64(bm)
	out["loadgen.late_p99_ms"] = quantile(st.late, 0.99)
	out["loadgen.late_max_ms"] = quantile(st.late, 1)
}
