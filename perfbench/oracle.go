package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"pipes"
	"pipes/internal/pubsub"
)

// checks counts attempted operations and names every failed one. The
// operations are HTTP requests, per-query output checks, checkpoint
// rounds and recovery checks.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  map[string]int
	examples  map[string]string
}

func newChecks() *checks {
	return &checks{failures: map[string]int{}, examples: map[string]string{}}
}

// check records one operation under name; ok=false counts it failed
// with the detail as the first example.
func (c *checks) check(name string, ok bool, detail string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		c.failures[name]++
		if _, seen := c.examples[name]; !seen {
			c.examples[name] = detail
		}
	}
	return ok
}

func (c *checks) checkf(name string, ok bool, format string, args ...any) bool {
	if ok {
		return c.check(name, true, "")
	}
	return c.check(name, false, fmt.Sprintf(format, args...))
}

// report lists the failed checks by name, with counts and one example.
func (c *checks) report() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name, n := range c.failures {
		out = append(out, fmt.Sprintf("%s x%d: %s", name, n, c.examples[name]))
	}
	sort.Strings(out)
	return out
}

// digest is an order-independent summary of one query's output: the
// element count and the wrapping sum of a hash of every (interval,
// value) pair, plus whether starts were non-decreasing in arrival order.
type digest struct {
	Count   int
	Sum     uint64
	Ordered bool
	// FirstDisorder is the index of the first element whose start fell
	// behind its predecessor's (-1 when ordered).
	FirstDisorder int
}

func (d digest) String() string { return fmt.Sprintf("n=%d sum=%016x", d.Count, d.Sum) }

// same reports whether two digests describe the same output multiset.
func (d digest) same(o digest) bool { return d.Count == o.Count && d.Sum == o.Sum }

// hashResult hashes one result given its start, end and canonical JSON
// value: the encoding the service delivers, so engine-side and
// HTTP-side outputs digest identically.
func hashResult(start, end int64, value []byte) uint64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(start))
	binary.LittleEndian.PutUint64(b[8:], uint64(end))
	h.Write(b[:])
	h.Write(value)
	return h.Sum64()
}

// digester accumulates a digest incrementally, in arrival order.
type digester struct {
	d       digest
	started bool
	prev    int64
	canon   bytes.Buffer
}

func newDigester() *digester { return &digester{d: digest{Ordered: true, FirstDisorder: -1}} }

// add digests one result given its canonical (compact JSON) value.
func (g *digester) add(start, end int64, value []byte) {
	g.d.Sum += hashResult(start, end, value)
	if g.started && start < g.prev && g.d.Ordered {
		g.d.Ordered, g.d.FirstDisorder = false, g.d.Count
	}
	g.started, g.prev = true, start
	g.d.Count++
}

// addElement digests one engine output element.
func (g *digester) addElement(e pipes.Element) {
	raw, err := json.Marshal(e.Value)
	if err != nil {
		raw = []byte(fmt.Sprintf("%v", e.Value))
	}
	g.add(int64(e.Start), int64(e.End), raw)
}

// addDelivered digests one result from a service page. The service
// pretty-prints its pages; compacting restores the engine's encoding.
func (g *digester) addDelivered(start, end int64, value []byte) {
	g.canon.Reset()
	if json.Compact(&g.canon, value) != nil {
		g.canon.Write(value)
	}
	g.add(start, end, g.canon.Bytes())
}

// digestElements digests engine output elements in arrival order.
func digestElements(elems []pipes.Element) digest {
	g := newDigester()
	for _, e := range elems {
		g.addElement(e)
	}
	return g.d
}

// digestSink digests a query's output as it arrives rather than keeping
// it, so retained results do not inflate the heap the run measures.
type digestSink struct {
	*pubsub.FuncSink
	g    *digester
	done chan struct{}
}

func newDigestSink(name string) *digestSink {
	s := &digestSink{g: newDigester(), done: make(chan struct{})}
	s.FuncSink = pipes.NewFuncSink(name, 1,
		func(e pipes.Element, _ int) { s.g.addElement(e) },
		func() { close(s.done) })
	return s
}

// wait blocks until the query's output has ended and returns its digest.
func (s *digestSink) wait() digest {
	<-s.done
	return s.g.d
}

// compareOutputs checks every query's digest against the reference run
// and its start order, recording one check per query per aspect.
func compareOutputs(c *checks, scope string, names []string, got, want []digest) {
	for i, name := range names {
		q := shortName(name)
		c.checkf(scope+".order."+q, got[i].Ordered,
			"start order violated at output %d", got[i].FirstDisorder)
		c.checkf(scope+".output."+q, got[i].same(want[i]),
			"got %v, reference %v", got[i], want[i])
	}
}

// shortName turns a query label into a check-name component.
func shortName(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' {
			return r
		}
		return '_'
	}, s)
}
