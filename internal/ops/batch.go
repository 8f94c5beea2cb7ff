// Vectorized frame processing for the high-volume operators: one
// ProcessBatch call takes the processing lock once and runs a tight loop
// over the frame instead of paying virtual dispatch, lock acquisition and
// (for the stateless rewrites) per-element transfer for every element.
// Each implementation is exactly equivalent to per-element Process calls
// in frame order — the contract pubsub.BatchSink demands and the
// differential harness in internal/harness verifies. Operators that emit
// through an order buffer keep releasing per element (identical emission
// order to the scalar lane) but collect the released elements into a
// single downstream frame, so batching survives across the operator.
// End-of-stream flushes send frames as well, on both lanes: every order
// buffer's flush hands its remaining results to TransferBatch in Start
// order, cut into frames of at most flushFrame (64) elements.
//
// Output frames are built in per-operator scratch reused across calls:
// under the temporal.Batch borrow contract the downstream borrow ends
// when TransferBatch returns, so the backing array is free again by the
// time the next frame arrives. The scratch lives under ProcMu with the
// rest of the operator state. Forwarding an input frame unchanged
// (filter with nothing dropped) is equally legal — the borrow nests
// through synchronous hops.
package ops

import "pipes/internal/temporal"

// ProcessBatch implements pubsub.BatchSink: the predicate runs once per
// element; a frame that passes entirely is forwarded as-is.
func (f *Filter) ProcessBatch(b temporal.Batch, _ int) {
	f.ProcMu.Lock()
	defer f.ProcMu.Unlock()
	i := 0
	for i < len(b) && f.pred(b[i].Value) {
		i++
	}
	if i == len(b) {
		f.TransferBatch(b)
		return
	}
	out := append(f.scratch[:0], b[:i]...)
	for _, e := range b[i+1:] {
		if f.pred(e.Value) {
			out = append(out, e)
		}
	}
	f.scratch = out
	if len(out) > 0 {
		f.TransferBatch(out)
	}
}

// ProcessBatch implements pubsub.BatchSink.
func (m *Map) ProcessBatch(b temporal.Batch, _ int) {
	m.ProcMu.Lock()
	defer m.ProcMu.Unlock()
	out := m.scratch[:0]
	for _, e := range b {
		out = append(out, temporal.Derive(m.fn(e.Value), e.Interval, e))
	}
	m.scratch = out
	m.TransferBatch(out)
}

// ProcessBatch implements pubsub.BatchSink: the window insert path
// rewrites every interval in one pass.
func (w *TimeWindow) ProcessBatch(b temporal.Batch, _ int) {
	w.ProcMu.Lock()
	defer w.ProcMu.Unlock()
	out := w.scratch[:0]
	for _, e := range b {
		end := e.Start + w.size
		if end < e.Start { // overflow
			end = temporal.MaxTime
		}
		out = append(out, e.WithInterval(temporal.NewInterval(e.Start, end)))
	}
	w.scratch = out
	w.TransferBatch(out)
}

// ProcessBatch implements pubsub.BatchSink.
func (w *UnboundedWindow) ProcessBatch(b temporal.Batch, _ int) {
	w.ProcMu.Lock()
	defer w.ProcMu.Unlock()
	out := w.scratch[:0]
	for _, e := range b {
		out = append(out, e.WithInterval(temporal.NewInterval(e.Start, temporal.MaxTime)))
	}
	w.scratch = out
	w.TransferBatch(out)
}

// ProcessBatch implements pubsub.BatchSink.
func (w *NowWindow) ProcessBatch(b temporal.Batch, _ int) {
	w.ProcMu.Lock()
	defer w.ProcMu.Unlock()
	out := w.scratch[:0]
	for _, e := range b {
		out = append(out, e.WithInterval(temporal.NewInterval(e.Start, e.Start+1)))
	}
	w.scratch = out
	w.TransferBatch(out)
}

// ProcessBatch implements pubsub.BatchSink.
func (w *TumblingWindow) ProcessBatch(b temporal.Batch, _ int) {
	w.ProcMu.Lock()
	defer w.ProcMu.Unlock()
	out := w.scratch[:0]
	for _, e := range b {
		start := floorDiv(e.Start, w.size) * w.size
		out = append(out, e.WithInterval(temporal.NewInterval(start, start+w.size)))
	}
	w.scratch = out
	w.TransferBatch(out)
}

// ProcessBatch implements pubsub.BatchSink: displaced elements accumulate
// into one downstream frame.
func (w *CountWindow) ProcessBatch(b temporal.Batch, _ int) {
	w.ProcMu.Lock()
	defer w.ProcMu.Unlock()
	out := w.scratch[:0]
	for _, e := range b {
		if w.buf.Len() == w.n {
			old, _ := w.buf.Dequeue()
			end := e.Start
			if end <= old.Start {
				end = old.Start + 1 // simultaneous arrivals: keep interval non-empty
			}
			out = append(out, old.WithInterval(temporal.NewInterval(old.Start, end)))
		}
		w.buf.Enqueue(e)
	}
	w.scratch = out
	if len(out) > 0 {
		w.TransferBatch(out)
	}
}

// ProcessBatch implements pubsub.BatchSink: per-element ordered release,
// collected into one downstream frame.
func (w *PartitionedWindow) ProcessBatch(b temporal.Batch, _ int) {
	w.ProcMu.Lock()
	defer w.ProcMu.Unlock()
	out := w.scratch[:0]
	collect := func(r temporal.Element) { out = append(out, r) }
	for _, e := range b {
		w.processOne(e, collect)
	}
	w.scratch = out
	if len(out) > 0 {
		w.TransferBatch(out)
	}
}

// ProcessBatch implements pubsub.BatchSink: per-element ordered release,
// collected into one downstream frame.
func (u *Union) ProcessBatch(b temporal.Batch, input int) {
	u.ProcMu.Lock()
	defer u.ProcMu.Unlock()
	out := u.scratch[:0]
	collect := func(r temporal.Element) { out = append(out, r) }
	for _, e := range b {
		u.processOne(e, input, collect)
	}
	u.scratch = out
	if len(out) > 0 {
		u.TransferBatch(out)
	}
}

// ProcessBatch implements pubsub.BatchSink: per-element ordered release,
// collected into one downstream frame.
func (g *GroupBy) ProcessBatch(b temporal.Batch, _ int) {
	g.ProcMu.Lock()
	defer g.ProcMu.Unlock()
	out := g.scratch[:0]
	collect := func(r temporal.Element) { out = append(out, r) }
	for _, e := range b {
		g.processOne(e, collect)
	}
	g.scratch = out
	if len(out) > 0 {
		g.TransferBatch(out)
	}
}
