package ops

// Snapshot-equivalence property suite (experiment E11): for every physical
// operator and randomized inputs, the snapshot of the operator's output at
// every boundary instant must equal the corresponding relational operation
// applied to the input snapshots — the CQL-conformance property the paper
// claims for its temporal algebra.

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pipes/internal/aggregate"
	"pipes/internal/pubsub"
	"pipes/internal/snapshot"
	"pipes/internal/temporal"
)

// randStream produces an ordered stream of n elements with values in
// [0, vals) and durations in [1, maxDur].
func randStream(rng *rand.Rand, n, vals int, maxDur temporal.Time) []temporal.Element {
	out := make([]temporal.Element, n)
	t := temporal.Time(0)
	for i := range out {
		t += temporal.Time(rng.Intn(4))
		d := temporal.Time(rng.Intn(int(maxDur))) + 1
		out[i] = el(rng.Intn(vals), t, t+d)
	}
	return out
}

// checkEquivalence probes out vs. ref at every input boundary.
func checkEquivalence(t *testing.T, name string, out []temporal.Element,
	ref func(probe temporal.Time) []any, inputs ...[]temporal.Element) {
	t.Helper()
	for _, probe := range snapshot.Boundaries(inputs...) {
		got := snapshot.At(out, probe)
		want := ref(probe)
		if !snapshot.SameMultiset(got, want) {
			t.Fatalf("%s: snapshot mismatch at t=%d:\n got %v\nwant %v", name, probe, got, want)
		}
	}
	if !temporal.OrderedByStart(out) {
		t.Fatalf("%s: output violates stream order", name)
	}
}

func TestSnapshotEquivalenceFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 60, 10, 20)
		pred := func(v any) bool { return v.(int)%3 == 0 }
		out := runSingle(NewFilter("f", pred), in)
		checkEquivalence(t, "filter", out, func(p temporal.Time) []any {
			return snapshot.Filter(snapshot.At(in, p), pred)
		}, in)
	}
}

func TestSnapshotEquivalenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 60, 10, 20)
		fn := func(v any) any { return v.(int)*10 + 1 }
		out := runSingle(NewMap("m", fn), in)
		checkEquivalence(t, "map", out, func(p temporal.Time) []any {
			return snapshot.Map(snapshot.At(in, p), fn)
		}, in)
	}
}

func TestSnapshotEquivalenceUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := randStream(rng, 40, 10, 15)
		b := randStream(rng, 40, 10, 15)
		out := runMerged(NewUnion("u", 2), a, b)
		checkEquivalence(t, "union", out, func(p temporal.Time) []any {
			return snapshot.Union(snapshot.At(a, p), snapshot.At(b, p))
		}, a, b)
	}
}

func TestSnapshotEquivalenceUnionSequentialFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randStream(rng, 40, 10, 15)
	b := randStream(rng, 40, 10, 15)
	out := runSequential(NewUnion("u", 2), a, b)
	checkEquivalence(t, "union-seq", out, func(p temporal.Time) []any {
		return snapshot.Union(snapshot.At(a, p), snapshot.At(b, p))
	}, a, b)
}

func TestSnapshotEquivalenceJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	key := func(v any) any { return v.(int) % 4 }
	pred := func(l, r any) bool { return l.(int)%4 == r.(int)%4 }
	combine := func(l, r any) any { return Pair{Left: l, Right: r} }
	for trial := 0; trial < 15; trial++ {
		a := randStream(rng, 35, 12, 12)
		b := randStream(rng, 35, 12, 12)
		for mode, run := range map[string]func() []temporal.Element{
			"merged":     func() []temporal.Element { return runMerged(NewEquiJoin("j", key, key, combine), a, b) },
			"sequential": func() []temporal.Element { return runSequential(NewEquiJoin("j", key, key, combine), a, b) },
			"theta":      func() []temporal.Element { return runMerged(NewThetaJoin("j", pred, combine), a, b) },
		} {
			out := run()
			checkEquivalence(t, "join-"+mode, out, func(p temporal.Time) []any {
				return snapshot.Join(snapshot.At(a, p), snapshot.At(b, p), pred, combine)
			}, a, b)
		}
	}
}

func TestSnapshotEquivalenceMJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	key := func(v any) any { return v.(int) % 3 }
	for trial := 0; trial < 10; trial++ {
		a := randStream(rng, 20, 9, 10)
		b := randStream(rng, 20, 9, 10)
		c := randStream(rng, 20, 9, 10)
		out := runMerged(NewMJoin("m", 3, key), a, b, c)
		checkEquivalence(t, "mjoin", out, func(p temporal.Time) []any {
			return snapshot.MJoin([][]any{
				snapshot.At(a, p), snapshot.At(b, p), snapshot.At(c, p),
			}, key)
		}, a, b, c)
	}
}

func TestSnapshotEquivalenceDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 60, 6, 20)
		out := runSingle(NewDistinct("d"), in)
		checkEquivalence(t, "distinct", out, func(p temporal.Time) []any {
			return snapshot.Distinct(snapshot.At(in, p), nil)
		}, in)
	}
}

func TestSnapshotEquivalenceDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		a := randStream(rng, 40, 6, 15)
		b := randStream(rng, 40, 6, 15)
		for mode, run := range map[string]func() []temporal.Element{
			"merged":     func() []temporal.Element { return runMerged(NewDifference("d", nil), a, b) },
			"sequential": func() []temporal.Element { return runSequential(NewDifference("d", nil), a, b) },
		} {
			out := run()
			checkEquivalence(t, "difference-"+mode, out, func(p temporal.Time) []any {
				return snapshot.Diff(snapshot.At(a, p), snapshot.At(b, p), nil)
			}, a, b)
		}
	}
}

func TestSnapshotEquivalenceSplitIsIdentity(t *testing.T) {
	// Split changes physical representation but not logical content.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 50, 10, 30)
		out := runSingle(NewSplit("s", 7), in)
		checkEquivalence(t, "split", out, func(p temporal.Time) []any {
			return snapshot.At(in, p)
		}, in)
	}
}

func TestSnapshotEquivalenceCoalesceIsSetIdentity(t *testing.T) {
	// Coalesce preserves the *set* of values per snapshot (it may reduce
	// multiplicities of equal values to one — that is its purpose when
	// keyed by value).
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		in := randStream(rng, 50, 6, 20)
		out := runSingle(NewCoalesce("c", nil), in)
		checkEquivalence(t, "coalesce", out, func(p temporal.Time) []any {
			return snapshot.Distinct(snapshot.At(in, p), nil)
		}, in)
	}
}

func TestSnapshotEquivalenceGroupByCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	key := func(v any) any { return v.(int) % 3 }
	for trial := 0; trial < 15; trial++ {
		in := randStream(rng, 50, 9, 15)
		out := runSingle(NewGroupBy("g", key, aggregate.NewCount, nil), in)
		checkEquivalence(t, "groupby-count", out, func(p temporal.Time) []any {
			groups := snapshot.GroupAggregate(snapshot.At(in, p), key, func() interface {
				Insert(any)
				Value() any
			} {
				return aggregate.NewCount()
			})
			var want []any
			for _, kv := range groups {
				want = append(want, GroupResult{Key: kv[0], Agg: kv[1]})
			}
			return want
		}, in)
	}
}

func TestSnapshotEquivalenceGroupBySumAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	key := func(v any) any { return v.(int) % 2 }
	for _, tc := range []struct {
		name    string
		factory aggregate.Factory
	}{
		{"sum", aggregate.NewSum},
		{"avg", aggregate.NewAvg},
		{"min", aggregate.NewMin}, // non-invertible recompute path
		{"max", aggregate.NewMax},
	} {
		for trial := 0; trial < 10; trial++ {
			in := randStream(rng, 40, 20, 12)
			out := runSingle(NewGroupBy("g", key, tc.factory, nil), in)
			checkEquivalence(t, "groupby-"+tc.name, out, func(p temporal.Time) []any {
				groups := snapshot.GroupAggregate(snapshot.At(in, p), key, func() interface {
					Insert(any)
					Value() any
				} {
					return tc.factory()
				})
				var want []any
				for _, kv := range groups {
					want = append(want, GroupResult{Key: kv[0], Agg: kv[1]})
				}
				return want
			}, in)
		}
	}
}

func TestSnapshotEquivalenceGlobalAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		in := randStream(rng, 50, 25, 15)
		out := runSingle(NewAggregate("agg", aggregate.NewCount), in)
		checkEquivalence(t, "aggregate", out, func(p temporal.Time) []any {
			snap := snapshot.At(in, p)
			if len(snap) == 0 {
				return nil
			}
			return []any{int64(len(snap))}
		}, in)
	}
}

func TestSnapshotEquivalencePipelineComposition(t *testing.T) {
	// window → filter → groupby composed; oracle composed likewise.
	rng := rand.New(rand.NewSource(14))
	key := func(v any) any { return v.(int) % 2 }
	pred := func(v any) bool { return v.(int) < 8 }
	for trial := 0; trial < 10; trial++ {
		raw := randStream(rng, 40, 10, 1) // chronon-ish inputs
		w := NewTimeWindow("w", 12)
		f := NewFilter("f", pred)
		g := NewGroupBy("g", key, aggregate.NewCount, nil)
		w.Subscribe(f, 0)
		f.Subscribe(g, 0)
		col := make([]temporal.Element, 0)
		sink := newCollectSink(&col)
		g.Subscribe(sink, 0)
		for _, e := range raw {
			w.Process(e, 0)
		}
		w.Done(0)

		// Oracle: windowed input = same values with extended intervals.
		windowed := make([]temporal.Element, len(raw))
		for i, e := range raw {
			windowed[i] = el(e.Value, e.Start, e.Start+12)
		}
		checkEquivalence(t, "pipeline", col, func(p temporal.Time) []any {
			snap := snapshot.Filter(snapshot.At(windowed, p), pred)
			groups := snapshot.GroupAggregate(snap, key, func() interface {
				Insert(any)
				Value() any
			} {
				return aggregate.NewCount()
			})
			var want []any
			for _, kv := range groups {
				want = append(want, GroupResult{Key: kv[0], Agg: kv[1]})
			}
			return want
		}, windowed)
	}
}

// collectSink gathers synchronously into a caller-owned slice (the
// pipeline test keeps everything single-goroutine).
type collectSink struct {
	out *[]temporal.Element
}

func newCollectSink(out *[]temporal.Element) *collectSink { return &collectSink{out: out} }

func (c *collectSink) Name() string { return "collect" }

func (c *collectSink) Process(e temporal.Element, _ int) { *c.out = append(*c.out, e) }

func (c *collectSink) Done(_ int) {}

func TestSnapshotEquivalenceWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	raw := randStream(rng, 50, 10, 1)
	// TimeWindow oracle.
	out := runSingle(NewTimeWindow("w", 9), raw)
	windowed := make([]temporal.Element, len(raw))
	for i, e := range raw {
		windowed[i] = el(e.Value, e.Start, e.Start+9)
	}
	checkEquivalence(t, "timewindow", out, func(p temporal.Time) []any {
		return snapshot.At(windowed, p)
	}, windowed)

	// TumblingWindow oracle.
	out = runSingle(NewTumblingWindow("t", 10), raw)
	tumbled := make([]temporal.Element, len(raw))
	for i, e := range raw {
		s := floorDiv(e.Start, 10) * 10
		tumbled[i] = el(e.Value, s, s+10)
	}
	checkEquivalence(t, "tumbling", out, func(p temporal.Time) []any {
		return snapshot.At(tumbled, p)
	}, tumbled)
}

func TestSnapshotEquivalenceIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 15; trial++ {
		a := randStream(rng, 40, 6, 15)
		b := randStream(rng, 40, 6, 15)
		for mode, run := range map[string]func() []temporal.Element{
			"merged":     func() []temporal.Element { return runMerged(NewIntersect("i", nil), a, b) },
			"sequential": func() []temporal.Element { return runSequential(NewIntersect("i", nil), a, b) },
		} {
			out := run()
			checkEquivalence(t, "intersect-"+mode, out, func(p temporal.Time) []any {
				return snapshot.Intersect(snapshot.At(a, p), snapshot.At(b, p), nil)
			}, a, b)
		}
	}
}

// ---------------------------------------------------------------------------
// Scalar-vs-batch differential suite: every stateful operator is driven
// twice over the same deterministic merged schedule — once per-element
// through Process, once in frames through the batch lane (ProcessBatch
// where implemented, the per-element fallback otherwise) with checkpoint
// barriers injected at random schedule positions cutting the frames — and
// the two executions must agree exactly: identical output sequences and
// byte-identical StateSaver snapshots at every barrier.

// feedItem is one step of a deterministic multi-input schedule.
type feedItem struct {
	e     temporal.Element
	input int
}

// mergedFeed interleaves per-input-ordered streams in global Start order
// (ties: lower input first) — the same order runMerged uses.
func mergedFeed(inputs [][]temporal.Element) []feedItem {
	idx := make([]int, len(inputs))
	var out []feedItem
	for {
		best := -1
		for i, in := range inputs {
			if idx[i] >= len(in) {
				continue
			}
			if best < 0 || in[idx[i]].Start < inputs[best][idx[best]].Start {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, feedItem{e: inputs[best][idx[best]], input: best})
		idx[best]++
	}
}

// runOpLane drives one freshly built operator over the schedule. frame 0
// selects the scalar lane (Process per element); frame > 0 accumulates
// consecutive same-input items into frames of at most that size, cut at
// every barrier position, delivered through the batch lane. barriers are
// sorted schedule positions; barrier k+1 is injected on every input when
// position barriers[k] is reached. Returns the exact output sequence,
// the per-barrier gob snapshot (nil entries when the operator saves no
// state) and, per Done call, the sizes of the frames that call sent.
func runOpLane(op pubsub.Pipe, arity int, schedule []feedItem, barriers []int, frame int) ([]temporal.Element, [][]byte, [][]int) {
	sink := &frameSink{}
	op.Subscribe(sink, 0)

	snaps := make([][]byte, len(barriers))
	type hooked interface {
		SetBarrierHooks(save, ack func(pubsub.Barrier))
	}
	type saver interface {
		SaveState(enc *gob.Encoder) error
	}
	if h, ok := op.(hooked); ok {
		if sv, ok := op.(saver); ok {
			h.SetBarrierHooks(func(b pubsub.Barrier) {
				var buf bytes.Buffer
				if err := sv.SaveState(gob.NewEncoder(&buf)); err != nil {
					panic("differential snapshot: " + err.Error())
				}
				snaps[b.ID-1] = buf.Bytes()
			}, nil)
		}
	}

	bs, _ := op.(pubsub.BatchSink)
	var pending temporal.Batch
	pendingInput := -1
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if bs != nil {
			bs.ProcessBatch(pending, pendingInput)
		} else {
			for _, e := range pending {
				op.Process(e, pendingInput)
			}
		}
		pending = nil
	}
	inject := func(id uint64) {
		flush()
		cs, ok := op.(pubsub.ControlSink)
		if !ok {
			return
		}
		for i := 0; i < arity; i++ {
			cs.HandleControl(pubsub.Barrier{ID: id}, i)
		}
	}

	next := 0 // next barrier index
	for pos, item := range schedule {
		for next < len(barriers) && barriers[next] == pos {
			inject(uint64(next + 1))
			next++
		}
		if frame <= 0 {
			op.Process(item.e, item.input)
			continue
		}
		if item.input != pendingInput || len(pending) >= frame {
			flush()
			pendingInput = item.input
		}
		pending = append(pending, item.e)
	}
	for next < len(barriers) {
		inject(uint64(next + 1))
		next++
	}
	flush()
	done := make([][]int, arity)
	for i := 0; i < arity; i++ {
		sink.frames = nil
		op.Done(i)
		done[i] = sink.frames
	}
	return sink.out, snaps, done
}

// frameSink collects every element it receives and the size of every
// delivery: a ProcessBatch frame, or 1 for a scalar Process call.
type frameSink struct {
	out    []temporal.Element
	frames []int
}

func (s *frameSink) Name() string { return "frames" }

func (s *frameSink) Process(e temporal.Element, _ int) {
	s.out = append(s.out, e)
	s.frames = append(s.frames, 1)
}

func (s *frameSink) ProcessBatch(b temporal.Batch, _ int) {
	s.out = append(s.out, b...)
	s.frames = append(s.frames, len(b))
}

func (s *frameSink) Done(_ int) {}

// checkDoneFrames asserts that everything one Done call emitted went out
// in at most ⌈n/flushFrame⌉ frames of at most flushFrame elements.
func checkDoneFrames(t *testing.T, what string, done [][]int) {
	t.Helper()
	for input, frames := range done {
		n := 0
		for _, f := range frames {
			if f > flushFrame {
				t.Fatalf("%s: Done(%d) sent a frame of %d elements, limit %d", what, input, f, flushFrame)
			}
			n += f
		}
		if want := (n + flushFrame - 1) / flushFrame; len(frames) > want {
			t.Fatalf("%s: Done(%d) sent %d elements in %d frames %v, want at most %d",
				what, input, n, len(frames), frames, want)
		}
	}
}

// TestScalarBatchDifferential is the operator-level differential table:
// for every stateful operator, random inputs, random barrier placement
// and every frame size, the batch lane must replicate the scalar lane
// exactly — outputs and snapshot bytes.
func TestScalarBatchDifferential(t *testing.T) {
	key3 := func(v any) any { return v.(int) % 3 }
	combine := func(l, r any) any { return Pair{Left: l, Right: r} }
	pred := func(l, r any) bool { return l.(int)%4 == r.(int)%4 }

	cases := []struct {
		name  string
		arity int
		mk    func() pubsub.Pipe
	}{
		{"groupby-count", 1, func() pubsub.Pipe { return NewGroupBy("g", key3, aggregate.NewCount, nil) }},
		{"groupby-sum", 1, func() pubsub.Pipe { return NewGroupBy("g", key3, aggregate.NewSum, nil) }},
		{"equi-join", 2, func() pubsub.Pipe { return NewEquiJoin("j", key3, key3, combine) }},
		{"theta-join", 2, func() pubsub.Pipe { return NewThetaJoin("j", pred, combine) }},
		{"mjoin", 3, func() pubsub.Pipe { return NewMJoin("m", 3, key3) }},
		{"difference", 2, func() pubsub.Pipe { return NewDifference("d", nil) }},
		{"intersect", 2, func() pubsub.Pipe { return NewIntersect("i", nil) }},
		{"union", 3, func() pubsub.Pipe { return NewUnion("u", 3) }},
		{"time-window", 1, func() pubsub.Pipe { return NewTimeWindow("w", 9) }},
		{"tumbling-window", 1, func() pubsub.Pipe { return NewTumblingWindow("w", 10) }},
		{"count-window", 1, func() pubsub.Pipe { return NewCountWindow("w", 5) }},
		{"partitioned-window", 1, func() pubsub.Pipe { return NewPartitionedWindow("w", key3, 4) }},
		{"coalesce", 1, func() pubsub.Pipe { return NewCoalesce("c", key3) }},
		{"split", 1, func() pubsub.Pipe { return NewSplit("s", 4) }},
		{"dstream", 1, func() pubsub.Pipe { return NewDStream("d") }},
	}

	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(6600 + ci)))
			for trial := 0; trial < 6; trial++ {
				inputs := make([][]temporal.Element, tc.arity)
				for i := range inputs {
					inputs[i] = randStream(rng, 30, 9, 12)
				}
				schedule := mergedFeed(inputs)
				nb := 1 + rng.Intn(3)
				barriers := make([]int, nb)
				for i := range barriers {
					barriers[i] = rng.Intn(len(schedule) + 1)
				}
				sort.Ints(barriers)

				scalarOut, scalarSnaps, scalarDone := runOpLane(tc.mk(), tc.arity, schedule, barriers, 0)
				checkDoneFrames(t, "scalar lane", scalarDone)
				for _, frame := range []int{1, 7, 64} {
					batchOut, batchSnaps, batchDone := runOpLane(tc.mk(), tc.arity, schedule, barriers, frame)
					checkDoneFrames(t, "batch lane", batchDone)
					if len(batchOut) != len(scalarOut) {
						t.Fatalf("trial %d frame %d: output length %d, scalar %d",
							trial, frame, len(batchOut), len(scalarOut))
					}
					for i := range scalarOut {
						if scalarOut[i].Interval != batchOut[i].Interval ||
							!reflect.DeepEqual(scalarOut[i].Value, batchOut[i].Value) {
							t.Fatalf("trial %d frame %d: output[%d] = %v, scalar %v",
								trial, frame, i, batchOut[i], scalarOut[i])
						}
					}
					for r := range scalarSnaps {
						if !bytes.Equal(scalarSnaps[r], batchSnaps[r]) {
							t.Fatalf("trial %d frame %d: snapshot %d differs (%d vs %d bytes)",
								trial, frame, r+1, len(batchSnaps[r]), len(scalarSnaps[r]))
						}
					}
				}
			}
		})
	}
}
