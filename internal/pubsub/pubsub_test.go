package pubsub

import (
	"context"
	"sync"
	"testing"

	"pipes/internal/temporal"
)

func chronons(vals ...int) []temporal.Element {
	out := make([]temporal.Element, len(vals))
	for i, v := range vals {
		out[i] = temporal.At(v, temporal.Time(i))
	}
	return out
}

// identityPipe forwards everything; the minimal PipeBase-based operator.
type identityPipe struct {
	PipeBase
}

func newIdentityPipe(name string, inputs int) *identityPipe {
	return &identityPipe{PipeBase: NewPipeBase(name, inputs)}
}

func (p *identityPipe) Process(e temporal.Element, _ int) {
	p.ProcMu.Lock()
	defer p.ProcMu.Unlock()
	p.Transfer(e)
}

func TestSliceSourceDeliversAll(t *testing.T) {
	src := NewSliceSource("src", chronons(1, 2, 3))
	col := NewCollector("col", 1)
	if err := src.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	Drive(src)
	col.Wait()
	got := col.Values()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("collected %v, want [1 2 3]", got)
	}
}

func TestSubscribeDuplicateRejected(t *testing.T) {
	src := NewSliceSource("src", nil)
	col := NewCollector("col", 1)
	if err := src.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe(col, 0); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
	// Same sink on a different input is legal (e.g. self-join).
	if err := src.Subscribe(col, 1); err != nil {
		t.Fatalf("distinct input rejected: %v", err)
	}
}

func TestSubscribeAfterDone(t *testing.T) {
	src := NewSliceSource("src", nil)
	Drive(src) // exhausts immediately, signals done
	col := NewCollector("col", 1)
	if err := src.Subscribe(col, 0); err != ErrDone {
		t.Fatalf("Subscribe after done: err = %v, want ErrDone", err)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	src := NewSliceSource("src", chronons(1, 2, 3, 4))
	col := NewCollector("col", 1)
	src.Subscribe(col, 0)
	src.EmitNext()
	src.EmitNext()
	if err := src.Unsubscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	src.EmitNext()
	if got := col.Len(); got != 2 {
		t.Fatalf("collected %d elements after unsubscribe, want 2", got)
	}
	if err := src.Unsubscribe(col, 0); err != ErrNotSubscribed {
		t.Fatalf("second Unsubscribe: err = %v, want ErrNotSubscribed", err)
	}
}

func TestFanOutDeliversToAllSubscribers(t *testing.T) {
	src := NewSliceSource("src", chronons(1, 2, 3))
	cols := []*Collector{NewCollector("a", 1), NewCollector("b", 1), NewCollector("c", 1)}
	for _, c := range cols {
		src.Subscribe(c, 0)
	}
	Drive(src)
	for _, c := range cols {
		c.Wait()
		if c.Len() != 3 {
			t.Fatalf("%s received %d elements, want 3", c.Name(), c.Len())
		}
	}
}

func TestPipeDonePropagation(t *testing.T) {
	src := NewSliceSource("src", chronons(1))
	pipe := newIdentityPipe("id", 1)
	col := NewCollector("col", 1)
	src.Subscribe(pipe, 0)
	pipe.Subscribe(col, 0)
	Drive(src)
	col.Wait() // would hang if done did not propagate through the pipe
	if col.Len() != 1 {
		t.Fatalf("collected %d, want 1", col.Len())
	}
}

func TestMultiInputDoneWaitsForAllInputs(t *testing.T) {
	left := NewSliceSource("l", chronons(1))
	right := NewSliceSource("r", chronons(2))
	pipe := newIdentityPipe("merge", 2)
	col := NewCollector("col", 1)
	left.Subscribe(pipe, 0)
	right.Subscribe(pipe, 1)
	pipe.Subscribe(col, 0)

	Drive(left)
	if pipe.IsDone() {
		t.Fatal("pipe signalled done with one input still open")
	}
	Drive(right)
	col.Wait()
	if col.Len() != 2 {
		t.Fatalf("collected %d, want 2", col.Len())
	}
}

func TestDuplicateDoneIgnored(t *testing.T) {
	pipe := newIdentityPipe("p", 2)
	col := NewCollector("col", 1)
	pipe.Subscribe(col, 0)
	pipe.Done(0)
	pipe.Done(0) // duplicate — must not count as input 1
	if pipe.IsDone() {
		t.Fatal("duplicate done on one input completed a 2-input pipe")
	}
	pipe.Done(1)
	if !pipe.IsDone() {
		t.Fatal("pipe not done after all inputs done")
	}
	pipe.Done(5) // out of range — ignored
}

func TestOnAllDoneFlushRunsBeforeDownstreamDone(t *testing.T) {
	pipe := newIdentityPipe("p", 1)
	var order []string
	var mu sync.Mutex
	pipe.OnAllDone = func() {
		// Flush hook may publish buffered results.
		pipe.Transfer(temporal.At("flush", 99))
	}
	sink := NewFuncSink("s", 1,
		func(e temporal.Element, _ int) {
			mu.Lock()
			order = append(order, "elem")
			mu.Unlock()
		},
		func() {
			mu.Lock()
			order = append(order, "done")
			mu.Unlock()
		})
	pipe.Subscribe(sink, 0)
	pipe.Done(0)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "elem" || order[1] != "done" {
		t.Fatalf("order = %v, want [elem done]", order)
	}
}

func TestConcurrentPublishersSerialised(t *testing.T) {
	// Two sources hammer one pipe concurrently; the collector must see
	// every element exactly once (PipeBase.ProcMu serialises Process).
	const n = 2000
	pipe := newIdentityPipe("p", 2)
	col := NewCollector("col", 1)
	pipe.Subscribe(col, 0)
	var wg sync.WaitGroup
	for in := 0; in < 2; in++ {
		wg.Add(1)
		go func(input int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				pipe.Process(temporal.At(i, temporal.Time(i)), input)
			}
			pipe.Done(input)
		}(in)
	}
	wg.Wait()
	col.Wait()
	if col.Len() != 2*n {
		t.Fatalf("collected %d, want %d", col.Len(), 2*n)
	}
}

func TestChanSourceRun(t *testing.T) {
	ch := make(chan temporal.Element, 4)
	src := NewChanSource("sensor", ch)
	col := NewCollector("col", 1)
	src.Subscribe(col, 0)
	for i := 0; i < 4; i++ {
		ch <- temporal.At(i, temporal.Time(i))
	}
	close(ch)
	if err := src.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	col.Wait()
	if col.Len() != 4 {
		t.Fatalf("collected %d, want 4", col.Len())
	}
}

func TestChanSourceCancellation(t *testing.T) {
	ch := make(chan temporal.Element)
	src := NewChanSource("sensor", ch)
	col := NewCollector("col", 1)
	src.Subscribe(col, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := src.Run(ctx); err != context.Canceled {
		t.Fatalf("Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
	col.Wait() // done must still propagate
}

func TestBufferDecouplesAndPreservesOrder(t *testing.T) {
	src := NewSliceSource("src", chronons(1, 2, 3, 4, 5))
	buf := NewBuffer("buf")
	col := NewCollector("col", 1)
	src.Subscribe(buf, 0)
	buf.Subscribe(col, 0)

	Drive(src) // all five elements and the done entry land in the buffer
	if buf.Len() != 6 {
		t.Fatalf("buffer holds %d, want 6 (5 elements + done)", buf.Len())
	}
	if col.Len() != 0 {
		t.Fatal("buffer leaked elements before Drain")
	}
	if n := buf.Drain(2); n != 2 {
		t.Fatalf("Drain(2) = %d, want 2", n)
	}
	if col.Len() != 2 {
		t.Fatalf("collector has %d after partial drain, want 2", col.Len())
	}
	buf.Drain(0) // drain the rest
	col.Wait()   // done deferred until empty, then propagated
	got := col.Values()
	for i, want := range []any{1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("order violated: %v", got)
		}
	}
}

func TestBufferDoneOnEmptyPropagatesOnDrain(t *testing.T) {
	buf := NewBuffer("buf")
	col := NewCollector("col", 1)
	buf.Subscribe(col, 0)
	buf.Done(0)
	buf.Drain(0)
	col.Wait()
}

func TestConnectChains(t *testing.T) {
	src := NewSliceSource("src", chronons(7))
	a := newIdentityPipe("a", 1)
	b := newIdentityPipe("b", 1)
	last := Connect(src, a, b)
	col := NewCollector("col", 1)
	last.Subscribe(col, 0)
	Drive(src)
	col.Wait()
	if col.Len() != 1 {
		t.Fatalf("collected %d, want 1", col.Len())
	}
}

func TestGraphWalkAndTopoOrder(t *testing.T) {
	src := NewSliceSource("src", nil)
	a := newIdentityPipe("a", 1)
	b := newIdentityPipe("b", 1)
	join := newIdentityPipe("join", 2)
	col := NewCollector("col", 1)
	src.Subscribe(a, 0)
	src.Subscribe(b, 0)
	a.Subscribe(join, 0)
	b.Subscribe(join, 1)
	join.Subscribe(col, 0)

	g := NewGraph()
	g.AddRoot(src)
	g.AddRoot(src) // idempotent
	if n := len(g.Nodes()); n != 5 {
		t.Fatalf("graph discovered %d nodes, want 5", n)
	}
	if n := len(g.Edges()); n != 5 {
		t.Fatalf("graph discovered %d edges, want 5", n)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[Node]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		to, ok := e.To.(Node)
		if !ok {
			continue
		}
		if pos[e.From] >= pos[to] {
			t.Fatalf("topological order violated: %s !< %s", e.From.Name(), to.Name())
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if exp := g.Explain(); exp == "" {
		t.Fatal("Explain returned empty string")
	}
}

func TestGraphDetectsCycle(t *testing.T) {
	a := newIdentityPipe("a", 1)
	b := newIdentityPipe("b", 1)
	a.Subscribe(b, 0)
	b.Subscribe(a, 0)
	g := NewGraph()
	g.AddRoot(a)
	if err := g.Validate(); err != ErrCycle {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}
}

func TestFuncSourceExhaustion(t *testing.T) {
	i := 0
	src := NewFuncSource("gen", func() (temporal.Element, bool) {
		if i == 3 {
			return temporal.Element{}, false
		}
		e := temporal.At(i, temporal.Time(i))
		i++
		return e, true
	})
	col := NewCollector("col", 1)
	src.Subscribe(col, 0)
	Drive(src)
	col.Wait()
	if col.Len() != 3 {
		t.Fatalf("collected %d, want 3", col.Len())
	}
}

func TestCounterSink(t *testing.T) {
	src := NewSliceSource("src", chronons(1, 2, 3))
	ctr := NewCounter("ctr", 1)
	src.Subscribe(ctr, 0)
	Drive(src)
	ctr.Wait()
	if ctr.Count() != 3 {
		t.Fatalf("Count = %d, want 3", ctr.Count())
	}
}
