// Batched transfer lane. The scalar path (Transfer/Process) hands one
// element per virtual call; the batch lane hands a temporal.Batch frame
// per call so dispatch, locking and cache costs amortise across the
// frame. Semantics are identical by construction: a frame is exactly a
// run of consecutive scalar transfers with no control punctuation in
// between, and every consumer that does not implement BatchSink receives
// the frame through the per-element fallback below. The differential
// harness in internal/harness holds the two lanes to byte-identical
// snapshots.
package pubsub

import "pipes/internal/temporal"

// BatchSink is implemented by sinks that can consume a whole frame per
// call. ProcessBatch must be exactly equivalent to calling Process once
// per element in frame order. The frame is borrowed for the duration of
// the call (see temporal.Batch): the sink may forward it downstream
// synchronously, but must copy out any element it keeps and must not
// retain or mutate the slice after returning. Subscribe caches the
// capability so TransferBatch pays no per-frame type assertion.
type BatchSink interface {
	Sink
	// ProcessBatch consumes one frame arriving on the given input. Like
	// Process it is invoked synchronously by the publishing source.
	ProcessBatch(b temporal.Batch, input int)
}

// BatchEmitter is an Emitter that can publish a frame of up to max
// elements per activation instead of a single element.
type BatchEmitter interface {
	Emitter
	// EmitBatch publishes the next frame of at most max elements
	// (max <= 0 means one) and reports how many were published and
	// whether more may follow. On exhaustion it signals done and returns
	// (0, false), mirroring EmitNext.
	EmitBatch(max int) (n int, more bool)
}

// TransferBatch publishes a frame synchronously to every subscribed sink:
// BatchSinks get the whole frame in one ProcessBatch call, everything
// else receives the elements one by one — the automatic fallback that
// keeps every existing operator working unchanged. The publish hook runs
// once per element (never per frame), so 1-in-N trace sampling counts
// elements exactly like the scalar lane. Callers must serialise their own
// Transfer/TransferBatch/SignalDone sequence, exactly like Transfer. The
// frame is only borrowed by the subscribers (temporal.Batch): when the
// call returns, ownership is back with the caller, which may reuse the
// backing array for its next frame.
func (s *SourceBase) TransferBatch(b temporal.Batch) {
	if len(b) == 0 {
		return
	}
	if ref := s.fref.Load(); ref != nil {
		ref.Frame(len(b))
	}
	if h := s.hook.Load(); h != nil {
		// Hooks annotate elements (trace attachment), so they must not
		// write through b: sources may publish views of slices they do not
		// own exclusively (SliceSource publishes its backing array).
		// Annotate into publisher-owned scratch instead.
		hb := s.hookScratch[:0]
		for _, e := range b {
			hb = append(hb, (*h)(e))
		}
		s.hookScratch = hb
		b = hb
	}
	for _, sub := range s.loadSubs() {
		// One gate check per frame is race-free: an input transitions to
		// blocked only from its own control stream, which is serialised
		// with this very call (the publisher delivers data and controls in
		// order). The reverse transition (release) happens concurrently,
		// so the blocked path parks element by element with park's
		// under-lock re-check.
		if sub.gate != nil && sub.gate.blockedInput(sub.Input) {
			for _, e := range b {
				if !sub.gate.park(heldItem{e: e, input: sub.Input}, sub.Sink) {
					sub.Sink.Process(e, sub.Input)
				}
			}
			continue
		}
		if sub.batch != nil {
			sub.batch.ProcessBatch(b, sub.Input)
			continue
		}
		for _, e := range b {
			sub.Sink.Process(e, sub.Input)
		}
	}
}

// DriveBatched runs a batch emitter to exhaustion synchronously, frame
// elements per activation.
func DriveBatched(e BatchEmitter, frame int) {
	for {
		if _, more := e.EmitBatch(frame); !more {
			return
		}
	}
}
