package ops

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"sort"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/cql"
	"pipes/internal/pubsub"
	"pipes/internal/temporal"
)

func init() { gob.Register(cql.Tuple{}) }

// refLess is the per-comparison comparator canonSort replaced. It renders
// both keys on every call, so it is kept here only as the reference the
// canonical order must reproduce byte for byte.
func refLess(a, b any) bool { return canonKey(a) < canonKey(b) }

func refSortWire(ws []wireElem) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Start != ws[j].Start {
			return ws[i].Start < ws[j].Start
		}
		if ws[i].End != ws[j].End {
			return ws[i].End < ws[j].End
		}
		return refLess(ws[i].Value, ws[j].Value)
	})
}

func refDiffWire(c diffCapture) diffOpState {
	st := diffOpState{
		Keys: append([]diffKeyState(nil), c.keys...),
		InQ:  [2][]wireElem{toWire(c.inQ[0]), toWire(c.inQ[1])},
		Out:  c.out.wire(),
	}
	sort.Slice(st.Keys, func(i, j int) bool { return refLess(st.Keys[i].Key, st.Keys[j].Key) })
	for _, ev := range c.expiry {
		st.Expiry = append(st.Expiry, wireDiffExpiry{End: ev.end, Key: ev.key, Input: ev.input})
	}
	return st
}

// refEncode encodes op's state the way SnapshotState did with refLess as
// its comparator.
func refEncode(t *testing.T, op any) []byte {
	t.Helper()
	var st any
	switch o := op.(type) {
	case *Join:
		w0, w1 := toWire(o.areas[0].Items()), toWire(o.areas[1].Items())
		refSortWire(w0)
		refSortWire(w1)
		st = joinState{Areas: [2][]wireElem{w0, w1}, Out: o.out.saveState()}
	case *MJoin:
		ms := mjoinState{Areas: make([][]wireElem, len(o.areas)), Out: o.out.saveState()}
		for i, a := range o.areas {
			ms.Areas[i] = toWire(a.Items())
			refSortWire(ms.Areas[i])
		}
		st = ms
	case *GroupBy:
		gs := groupByState{Out: o.out.saveState()}
		for k, grp := range o.groups {
			ws := toWire(grp.active.Items())
			refSortWire(ws)
			gs.Groups = append(gs.Groups, groupState{Key: k, LB: grp.lb, Active: ws})
		}
		sort.Slice(gs.Groups, func(i, j int) bool { return refLess(gs.Groups[i].Key, gs.Groups[j].Key) })
		st = gs
	case *Difference:
		st = refDiffWire(captureDiffLike(o.state, o.expiry, o.inQ, o.out))
	case *Intersect:
		st = refDiffWire(captureDiffLike(o.state, o.expiry, o.inQ, o.out))
	case *PartitionedWindow:
		ps := partWindowState{Out: o.out.saveState()}
		for k, q := range o.part {
			ps.Parts = append(ps.Parts, partitionState{Key: k, Elems: toWire(q.Items())})
		}
		sort.Slice(ps.Parts, func(i, j int) bool { return refLess(ps.Parts[i].Key, ps.Parts[j].Key) })
		st = ps
	case *Union:
		st = unionState{Out: o.out.saveState()}
	case *CountWindow:
		st = countWindowState{Buf: toWire(o.buf.Items())}
	default:
		t.Fatalf("no reference encoding for %T", op)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tieStream is an ordered stream whose elements share few distinct
// intervals (Start in steps of 10 over `starts` values, all with the same
// length), so sweep areas and group multisets are long runs of equal
// (Start, End). Keys run over 0..12, so the rendered order ("int|10" <
// "int|9") differs from the numeric one; the small value range makes
// byte-equal duplicates.
func tieStream(rng *rand.Rand, n, starts int) []temporal.Element {
	out := make([]temporal.Element, n)
	for i := range out {
		s := temporal.Time(i * starts / n * 10)
		out[i] = el(cql.Tuple{"k": rng.Intn(13), "v": rng.Intn(4)}, s, s+1000)
	}
	return out
}

func tupleKey(v any) any { return v.(cql.Tuple)["k"] }

// TestCanonicalOrderMatchesReference pins the checkpoint bytes: for every
// HandleSaver operator the SnapshotState encoding equals the encoding
// sorted with the per-comparison reference comparator, and the
// end-of-stream flushes that order by key emit in the reference order.
func TestCanonicalOrderMatchesReference(t *testing.T) {
	type saver interface {
		SnapshotState() (func(enc *gob.Encoder) error, error)
		Process(e temporal.Element, input int)
	}
	cases := []struct {
		name   string
		inputs int
		mk     func() saver
	}{
		{"Join", 2, func() saver { return NewEquiJoin("j", tupleKey, tupleKey, nil) }},
		{"MJoin", 3, func() saver { return NewMJoin("m", 3, tupleKey) }},
		{"GroupBy", 1, func() saver {
			return NewGroupBy("g", tupleKey, aggregate.NewCount, func(k, a any) any { return a })
		}},
		{"Difference", 2, func() saver { return NewDifference("d", tupleKey) }},
		{"Intersect", 2, func() saver { return NewIntersect("i", tupleKey) }},
		{"PartitionedWindow", 1, func() saver { return NewPartitionedWindow("p", tupleKey, 5) }},
		{"Union", 2, func() saver { return NewUnion("u", 2) }},
		{"CountWindow", 1, func() saver { return NewCountWindow("c", 40) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				op := tc.mk()
				// Input 0 leads by a full stream so later inputs leave
				// pending output in the order buffers.
				for in := 0; in < tc.inputs; in++ {
					for _, e := range tieStream(rng, 300/(in+1), 3) {
						op.Process(e, in)
					}
				}
				fn, err := op.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := fn(gob.NewEncoder(&got)); err != nil {
					t.Fatal(err)
				}
				want := refEncode(t, op)
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("seed %d: canonical encoding (%dB) differs from the reference (%dB)", seed, got.Len(), len(want))
				}
			}
		})
	}

	// The flushes route through the operator's Done; the reference runs
	// the old key order on an identically fed twin.
	flushCases := []struct {
		name string
		mk   func() pubsub.Pipe
		ref  func(op pubsub.Pipe)
	}{
		{"PartitionedWindow.fflush", func() pubsub.Pipe { return NewPartitionedWindow("p", tupleKey, 5) }, func(op pubsub.Pipe) {
			w := op.(*PartitionedWindow)
			keys := make([]any, 0, len(w.part))
			for k := range w.part {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return refLess(keys[i], keys[j]) })
			for _, k := range keys {
				q := w.part[k]
				for {
					old, ok := q.Dequeue()
					if !ok {
						break
					}
					w.out.add(old.WithInterval(temporal.NewInterval(old.Start, temporal.MaxTime)))
				}
			}
			w.out.flush(w.TransferBatch)
		}},
		{"Coalesce.finish", func() pubsub.Pipe { return NewCoalesce("c", tupleKey) }, func(op pubsub.Pipe) {
			c := op.(*Coalesce)
			keys := make([]any, 0, len(c.pending))
			for k := range c.pending {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return refLess(keys[i], keys[j]) })
			for _, k := range keys {
				c.out.add(c.pending[k].value)
				delete(c.pending, k)
			}
			c.out.flush(c.TransferBatch)
		}},
	}
	for _, tc := range flushCases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				// One start only: every survivor ties on Start, so the
				// flush order is the key order.
				in := tieStream(rand.New(rand.NewSource(seed)), 200, 1)
				got, ref := tc.mk(), tc.mk()
				gotCol, refCol := pubsub.NewCollector("got", 1), pubsub.NewCollector("ref", 1)
				got.Subscribe(gotCol, 0)
				ref.Subscribe(refCol, 0)
				for _, e := range in {
					got.Process(e, 0)
					ref.Process(e, 0)
				}
				got.Done(0)
				gotCol.Wait()
				tc.ref(ref)
				g, w := gotCol.Elements(), refCol.Elements()
				if len(g) != len(w) || len(g) < 13 {
					t.Fatalf("seed %d: flushed %d elements, reference %d", seed, len(g), len(w))
				}
				for i := range g {
					if g[i].String() != w[i].String() {
						t.Fatalf("seed %d: flush order differs at %d: %v, reference %v", seed, i, g[i], w[i])
					}
				}
			}
		})
	}
}

// TestCanonicalOrderRendersOncePerKey guards the decorate-sort: ordering
// a tie run of n elements may allocate about one canonKey rendering per
// element, so allocations grow linearly in n. Rendering inside the
// comparator costs two renderings per comparison, n·log n in total.
func TestCanonicalOrderRendersOncePerKey(t *testing.T) {
	perRender := testing.AllocsPerRun(100, func() { _ = canonKey(cql.Tuple{"k": 1, "v": 2}) })
	for _, n := range []int{250, 1000, 4000} {
		orig := toWire(tieStream(rand.New(rand.NewSource(int64(n))), n, 1))
		work := make([]wireElem, n)
		allocs := testing.AllocsPerRun(3, func() {
			copy(work, orig)
			sortWire(work)
		})
		if perElem := allocs / float64(n); perElem > perRender+1 {
			t.Fatalf("n=%d: %.1f allocs per element sorting one tie run, want <= %.1f (one rendering each)",
				n, perElem, perRender+1)
		}
	}
}

// benchSnapshotEncode times one encode of a captured state through the
// SnapshotState closure, as the checkpoint writer runs it.
func benchSnapshotEncode(b *testing.B, op interface {
	SnapshotState() (func(enc *gob.Encoder) error, error)
}) {
	fn, err := op.SnapshotState()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := fn(gob.NewEncoder(io.Discard)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncodeGroupBy encodes 50k live elements in 13 groups
// spread over 5 windows: tie runs of ~770 equal (Start, End).
func BenchmarkSnapshotEncodeGroupBy(b *testing.B) {
	g := NewGroupBy("g", tupleKey, aggregate.NewCount, func(k, a any) any { return a })
	for _, e := range tieStream(rand.New(rand.NewSource(1)), 50000, 5) {
		g.Process(e, 0)
	}
	benchSnapshotEncode(b, g)
}

// BenchmarkSnapshotEncodeJoin encodes 50k elements across both sweep
// areas of an equi-join, 5 windows per area. The right key never equals
// a left key, so set-up stores both areas without building 10^8 results.
func BenchmarkSnapshotEncodeJoin(b *testing.B) {
	j := NewEquiJoin("j", tupleKey, func(v any) any { return -1 - tupleKey(v).(int) }, nil)
	rng := rand.New(rand.NewSource(1))
	for in := 0; in < 2; in++ {
		for _, e := range tieStream(rng, 25000, 5) {
			j.Process(e, in)
		}
	}
	benchSnapshotEncode(b, j)
}
