package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"pipes"
)

func TestBenchmarkFileSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBenchmarkFile(raw); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	bad := []string{
		`{}`,
		string(raw[:len(raw)-2]),
	}
	for _, mutate := range []func(map[string]any){
		func(m map[string]any) { m["run_seconds"] = 61 },
		func(m map[string]any) { m["paths"] = []any{"/abs"} },
		func(m map[string]any) { m["extra"] = 1 },
		func(m map[string]any) {
			e2e := m["end_to_end"].([]any)
			e2e[0].(map[string]any)["bound"] = 0.3
		},
	} {
		var c map[string]any
		_ = json.Unmarshal(raw, &c)
		mutate(c)
		out, _ := json.Marshal(c)
		bad = append(bad, string(out))
	}
	for i, s := range bad {
		if checkBenchmarkFile([]byte(s)) == nil {
			t.Errorf("malformed file %d accepted", i)
		}
	}
}

func TestRecordSchema(t *testing.T) {
	for w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			r := newRecord(w, 7, 20, trace)
			r.E2E, r.Layers = map[string]float64{}, map[string]float64{}
			for _, m := range e2eMetrics {
				r.E2E[m.Name] = 1.5
			}
			for _, m := range layerMetrics {
				r.Layers[m.Name] = 0
			}
			r.Attempted = 3
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkRecord(raw); err != nil {
				t.Errorf("%s trace=%d: %v", w, trace, err)
			}
		}
	}
	r := newRecord("traffic-monitored", 7, 20, 0)
	r.Attempted = 3
	raw, _ := json.Marshal(r)
	if checkRecord(raw) == nil {
		t.Error("record without end-to-end metrics accepted")
	}
	r.Trace = 1
	raw, _ = json.Marshal(r)
	if checkRecord(raw) == nil {
		t.Error("traced record without per-layer metrics accepted")
	}
	r.Trace = 0
	r.E2E = map[string]float64{"setup_s": 1}
	r.Host = ""
	raw, _ = json.Marshal(r)
	if checkRecord(raw) == nil {
		t.Error("record without host accepted")
	}
}

// fingerprint hashes elements in order, values printed with sorted keys.
func fingerprint(elems []pipes.Element) string {
	h := sha256.New()
	for _, e := range elems {
		fmt.Fprintf(h, "%d %d %v\n", e.Start, e.End, e.Value)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	gens := map[string]func(seed int64) []pipes.Element{
		"traffic": func(seed int64) []pipes.Element { return genTraffic(seed, 5000) },
		"nexmark": func(seed int64) []pipes.Element { return genNexmark(seed, 5000).bids },
		"fanout": func(seed int64) []pipes.Element {
			elems, _ := pacedStream(genPool(seed), 5000, nominalRate)
			return elems
		},
	}
	for name, gen := range gens {
		a, b, c := fingerprint(gen(3)), fingerprint(gen(3)), fingerprint(gen(4))
		if a != b {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave identical inputs", name)
		}
	}
}

func TestSameSeedSameOutputs(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		traffic := genTraffic(seed, 8000)
		nex := genNexmark(seed, 8000)
		fan, _ := pacedStream(genPool(seed), 8000, nominalRate)
		cases := map[string]func() ([]digest, error){
			"traffic": func() ([]digest, error) {
				return referenceDigests(trafficQueries, func(d *pipes.DSMS) {
					d.RegisterStream("traffic", pipes.NewSliceSource("traffic", traffic), 1000)
				})
			},
			"nexmark": func() ([]digest, error) {
				return referenceDigests(nexmarkQueries, func(d *pipes.DSMS) {
					d.RegisterStream("bids", pipes.NewSliceSource("bids", nex.bids), 2000)
					d.RegisterStream("persons", nex.persons(0), 10)
				})
			},
			"fanout": func() ([]digest, error) { return fanoutReference(fan) },
		}
		for name, run := range cases {
			a, err := run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := run()
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if !a[i].same(b[i]) || a[i].Count == 0 || !a[i].Ordered {
					t.Errorf("%s seed %d query %d: %v then %v (ordered %v)", name, seed, i, a[i], b[i], a[i].Ordered)
				}
			}
		}
	}
}

// TestDeliveredDigest checks that a result digested from the service's
// pretty-printed page equals the engine-side digest of the same element.
func TestDeliveredDigest(t *testing.T) {
	e := pipes.NewElement(pipes.Tuple{"auction": 3, "gen": int64(250000), "eur": 899.5}, 10, 11)
	want := digestElements([]pipes.Element{e})
	raw, _ := json.MarshalIndent(map[string]any{"value": e.Value}, "", "  ")
	var page struct {
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		t.Fatal(err)
	}
	g := newDigester()
	g.addDelivered(10, 11, page.Value)
	if !g.d.same(want) {
		t.Fatalf("delivered %v, engine %v", g.d, want)
	}
	if gen, ok := genOf(page.Value); !ok || gen != 250000 {
		t.Fatalf("genOf = %v, %v", gen, ok)
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	list := []span{
		{ID: 1, Layer: "engine", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "optimizer", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Layer: "sched", Start: 20 * ms, End: 80 * ms},
		{ID: 4, Parent: 1, Layer: "ft", Start: 50 * ms, End: 90 * ms}, // overlaps the run
	}
	self := selfTimeMS(list)
	want := map[string]float64{"engine": 20, "optimizer": 10, "sched": 60, "ft": 40}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	var nilSpans *spans
	if id := nilSpans.begin("x", "y", "z", 0); id != 0 {
		t.Errorf("untraced begin returned %d", id)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s := summarize(xs); s.TailQ != "p99" || s.N != 1000 {
		t.Errorf("1000 samples: %+v", s)
	}
	if s := summarize(xs[:200]); s.TailQ != "p90" {
		t.Errorf("200 samples: %+v", s)
	}
	if s := summarize(xs[:50]); s.TailQ != "p50" {
		t.Errorf("50 samples: %+v", s)
	}
}
