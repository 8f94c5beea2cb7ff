package metadata

import (
	"testing"

	"pipes/internal/ops"
	"pipes/internal/pubsub"
	"pipes/internal/telemetry"
	"pipes/internal/temporal"
)

// TestTraceSpanPropagationThroughChain follows one traced element through
// a 3-operator monitored chain: a filter (forwards the element unchanged,
// so the trace rides along), a map (constructs a fresh element and carries
// the trace over through temporal.Derive) and a second filter. Every hop
// must append in/out spans in graph order and the element arriving at the
// sink must still carry the context.
func TestTraceSpanPropagationThroughChain(t *testing.T) {
	tracer := telemetry.NewTracer(1, 0)
	f1 := ops.NewFilter("f1", func(any) bool { return true })
	mp := ops.NewMap("m", func(v any) any { return v.(int) * 10 })
	f2 := ops.NewFilter("f2", func(any) bool { return true })

	d1 := NewMonitored(f1, WithTracer(tracer))
	d2 := NewMonitored(mp, WithTracer(tracer))
	d3 := NewMonitored(f2, WithTracer(tracer))
	if err := d1.Subscribe(d2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d2.Subscribe(d3, 0); err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("out", 1)
	if err := d3.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}

	tr := tracer.MaybeTrace()
	tr.Hop("src", "emit", 5)
	d1.Process(telemetry.Attach(temporal.At(7, 5), tr), 0)
	d1.Done(0)
	col.Wait()

	elems := col.Elements()
	if len(elems) != 1 {
		t.Fatalf("sink got %d elements, want 1", len(elems))
	}
	if elems[0].Value != 70 {
		t.Fatalf("value = %v, want 70", elems[0].Value)
	}
	if telemetry.FromElement(elems[0]) != tr {
		t.Fatal("trace context did not survive to the sink (map hop dropped it)")
	}

	want := []struct{ op, event string }{
		{"src", "emit"},
		{"f1", "in"}, {"f1", "out"},
		{"m", "in"}, {"m", "out"},
		{"f2", "in"}, {"f2", "out"},
	}
	spans := tr.Spans()
	if len(spans) != len(want) {
		t.Fatalf("got %d spans %v, want %d", len(spans), spans, len(want))
	}
	for i, w := range want {
		if spans[i].Op != w.op || spans[i].Event != w.event {
			t.Fatalf("span %d = %s/%s, want %s/%s", i, spans[i].Op, spans[i].Event, w.op, w.event)
		}
		if i > 0 && spans[i].WallNano < spans[i-1].WallNano {
			t.Fatalf("span stamps not monotone at %d", i)
		}
	}

	// The traced hand-offs feed the queue-time histograms and every
	// processed element feeds the service-time histograms.
	for _, d := range []*Monitored{d1, d2, d3} {
		if d.ServiceTimeHistogram().Count() == 0 {
			t.Fatalf("%s recorded no service time", d.Name())
		}
	}
	if d2.QueueTimeHistogram().Count() == 0 {
		t.Fatal("map recorded no queue (hand-off) time")
	}
	if v, ok := d2.Get(ServiceTimeP99); !ok || v < 0 {
		t.Fatalf("ServiceTimeP99 = %v ok=%v", v, ok)
	}
	if _, ok := d2.Get(QueueTimeP50); !ok {
		t.Fatal("QueueTimeP50 undefined despite samples")
	}
}

// frameCounter wraps an operator and records how it is fed: the length
// of every ProcessBatch frame and the number of scalar Process calls.
type frameCounter struct {
	pubsub.Pipe
	frames []int
	scalar int
}

func (c *frameCounter) Process(e temporal.Element, input int) {
	c.scalar++
	c.Pipe.Process(e, input)
}

func (c *frameCounter) ProcessBatch(b temporal.Batch, input int) {
	c.frames = append(c.frames, len(b))
	c.Pipe.(pubsub.BatchSink).ProcessBatch(b, input)
}

// TestTraceSpanPropagationThroughChainBatch is the frame-lane twin of
// TestTraceSpanPropagationThroughChain: the traced element sits in the
// middle of a 64-element frame. Every decorated operator must still see
// the frame whole, in one ProcessBatch call, while the trace gets the
// same spans in the same order as on the scalar lane.
func TestTraceSpanPropagationThroughChainBatch(t *testing.T) {
	tracer := telemetry.NewTracer(1, 0)
	f1 := &frameCounter{Pipe: ops.NewFilter("f1", func(any) bool { return true })}
	mp := &frameCounter{Pipe: ops.NewMap("m", func(v any) any { return v.(int) * 10 })}
	f2 := &frameCounter{Pipe: ops.NewFilter("f2", func(any) bool { return true })}

	d1 := NewMonitored(f1, WithTracer(tracer))
	d2 := NewMonitored(mp, WithTracer(tracer))
	d3 := NewMonitored(f2, WithTracer(tracer))
	if err := d1.Subscribe(d2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d2.Subscribe(d3, 0); err != nil {
		t.Fatal(err)
	}
	col := pubsub.NewCollector("out", 1)
	if err := d3.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}

	const frameLen, at = 64, 32
	tr := tracer.MaybeTrace()
	tr.Hop("src", "emit", at)
	frame := make(temporal.Batch, frameLen)
	for i := range frame {
		frame[i] = temporal.At(i, temporal.Time(i))
	}
	frame[at] = telemetry.Attach(frame[at], tr)
	d1.ProcessBatch(frame, 0)
	d1.Done(0)
	col.Wait()

	for _, c := range []*frameCounter{f1, mp, f2} {
		if len(c.frames) != 1 || c.frames[0] != frameLen || c.scalar != 0 {
			t.Fatalf("%s fed frames %v and %d scalar calls, want one frame of %d",
				c.Name(), c.frames, c.scalar, frameLen)
		}
	}
	elems := col.Elements()
	if len(elems) != frameLen {
		t.Fatalf("sink got %d elements, want %d", len(elems), frameLen)
	}
	for i, e := range elems {
		if got := telemetry.FromElement(e); (got == tr) != (i == at) || e.Value != i*10 {
			t.Fatalf("sink element %d = %v with trace %v", i, e, got)
		}
	}

	want := []struct{ op, event string }{
		{"src", "emit"},
		{"f1", "in"}, {"f1", "out"},
		{"m", "in"}, {"m", "out"},
		{"f2", "in"}, {"f2", "out"},
	}
	spans := tr.Spans()
	if len(spans) != len(want) {
		t.Fatalf("got %d spans %v, want %d", len(spans), spans, len(want))
	}
	for i, w := range want {
		if spans[i].Op != w.op || spans[i].Event != w.event {
			t.Fatalf("span %d = %s/%s, want %s/%s", i, spans[i].Op, spans[i].Event, w.op, w.event)
		}
		if i > 0 && spans[i].WallNano < spans[i-1].WallNano {
			t.Fatalf("span stamps not monotone at %d", i)
		}
	}
	for _, d := range []*Monitored{d1, d2, d3} {
		if d.ServiceTimeHistogram().Count() == 0 {
			t.Fatalf("%s recorded no service time", d.Name())
		}
		if d.QueueTimeHistogram().Count() == 0 {
			t.Fatalf("%s recorded no queue (hand-off) time", d.Name())
		}
	}
}

// TestUntracedElementsUnaffected checks the tracing path is inert for
// unsampled elements: no spans, no attachment, queue histogram untouched.
func TestUntracedElementsUnaffected(t *testing.T) {
	tracer := telemetry.NewTracer(1_000_000, 0) // effectively never samples
	f := ops.NewFilter("f", func(any) bool { return true })
	d := NewMonitored(f, WithTracer(tracer))
	col := pubsub.NewCollector("out", 1)
	if err := d.Subscribe(col, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Process(temporal.At(i, temporal.Time(i)), 0)
	}
	d.Done(0)
	col.Wait()
	for _, e := range col.Elements() {
		if e.Trace != nil {
			t.Fatal("unsampled element gained a trace")
		}
	}
	if d.QueueTimeHistogram().Count() != 0 {
		t.Fatal("queue histogram recorded without traces")
	}
	// Service timing runs on the 1-in-16 maintenance sample: of 10
	// elements only the first is timed.
	if d.ServiceTimeHistogram().Count() != 1 {
		t.Fatalf("service histogram = %d, want 1", d.ServiceTimeHistogram().Count())
	}
}

func TestCountersAddResetSortedSnapshot(t *testing.T) {
	c := NewCounters()
	c.Add("z.last", 3)
	c.Add("a.first", 1)
	c.Add("m.middle", 2)
	c.Add("a.first", 4)
	snap := c.SortedSnapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d counters", len(snap))
	}
	wantNames := []string{"a.first", "m.middle", "z.last"}
	wantVals := []int64{5, 2, 3}
	for i := range snap {
		if snap[i].Name != wantNames[i] || snap[i].Value != wantVals[i] {
			t.Fatalf("snapshot[%d] = %+v, want %s=%d", i, snap[i], wantNames[i], wantVals[i])
		}
	}
	c.Reset()
	for _, cv := range c.SortedSnapshot() {
		if cv.Value != 0 {
			t.Fatalf("%s not reset: %d", cv.Name, cv.Value)
		}
	}
	if c.Get("a.first") != 0 {
		t.Fatal("handle broken after Reset")
	}
	c.Add("a.first", 1)
	if c.Get("a.first") != 1 {
		t.Fatal("counter dead after Reset")
	}
}
