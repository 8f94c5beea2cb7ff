// Control-element channel: in-band punctuations that flow through the
// query graph in stream order, alongside (never overtaking, never
// overtaken by) data elements. The fault-tolerance subsystem
// (internal/ft, FAULT_TOLERANCE.md) uses it to carry checkpoint barriers;
// the design follows punctuation-based inter-operator feedback
// (Fernández-Moctezuma et al.): a control element injected at a source
// between two data elements reaches every downstream node at exactly that
// position of the stream.
//
// Delivery rules:
//
//   - One ordered path per edge: data, controls and end-of-stream (done)
//     arrive in publication order, through direct calls, Gates and Buffers.
//   - Direct connections: TransferControl hands the control synchronously
//     to every subscriber implementing ControlSink; plain sinks
//     (collectors, archives) do not see controls.
//   - Buffers: controls and done are enqueued in FIFO position with the
//     data and re-published when drained, so they keep their stream
//     position across scheduler boundaries.
//   - Multi-input operators: barriers align. The first barrier of a round
//     blocks its input — everything subsequently published on it (data,
//     controls, done) is parked inside the operator's Gate, not processed
//     — until the same barrier has arrived on every other open input. On
//     alignment the operator snapshots (OnBarrier hook, under ProcMu),
//     forwards the barrier downstream, replays the parked items in
//     arrival order and finally acks. Inputs that have signalled done
//     count as aligned.
//
// Everything here is strictly pay-for-what-you-use: a graph that never
// sees a control element pays one atomic load per Transfer on
// multi-input edges and nothing anywhere else.
package pubsub

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// Control is an in-band control element (punctuation). Controls travel
// through the graph in stream order but carry no snapshot content: they
// are invisible to the operator algebra and to plain sinks.
type Control interface {
	// ControlString renders the control for logs and EXPLAIN output.
	ControlString() string
}

// Barrier is the checkpoint punctuation of the fault-tolerance subsystem:
// all state changes caused by elements published before the barrier
// belong to checkpoint ID, all later ones do not. Payload carries the
// coordinator's per-round state (opaque to pubsub).
type Barrier struct {
	ID      uint64
	Payload any
}

// ControlString implements Control.
func (b Barrier) ControlString() string { return fmt.Sprintf("barrier#%d", b.ID) }

// ControlSink is implemented by sinks that participate in control flow.
// Sinks that do not implement it simply never see controls.
type ControlSink interface {
	// HandleControl consumes one control element arriving on the given
	// input. Like Process it is invoked synchronously by the publishing
	// source and must be serialised by the caller per input edge.
	HandleControl(c Control, input int)
}

// Gated is implemented by sinks whose inputs can be blocked during
// barrier alignment. Subscribe caches the gate in the subscription so
// Transfer can consult it without a per-element type assertion.
type Gated interface {
	// BarrierGate returns the alignment gate, or nil when the sink never
	// blocks (single-input operators).
	BarrierGate() *Gate
}

// TransferControl publishes a control element synchronously to every
// subscribed ControlSink, in subscriber order. Callers must serialise
// TransferControl with their own Transfer/SignalDone sequence, exactly
// like Transfer — the control takes the stream position of the call.
func (s *SourceBase) TransferControl(c Control) {
	for _, sub := range s.loadSubs() {
		if cs, ok := sub.Sink.(ControlSink); ok && !sub.gate.park(heldItem{ctl: c, input: sub.Input}, sub.Sink) {
			cs.HandleControl(c, sub.Input)
		}
	}
}

// endOfStream is the in-band form of done while it waits in a Gate or a
// Buffer: it holds its stream position like any control and turns back
// into a Done call when released. It never leaves the package.
type endOfStream struct{}

// ControlString implements Control.
func (endOfStream) ControlString() string { return "done" }

// heldItem is one item parked during barrier alignment: a data element,
// or a control (ctl != nil, endOfStream for done).
type heldItem struct {
	e     temporal.Element
	ctl   Control
	input int
}

// Gate blocks individual inputs of a multi-input operator during barrier
// alignment. The unblocked fast path is a single atomic load; the blocked
// path locks and parks the item — element, control or done — in arrival
// order.
type Gate struct {
	blocked atomic.Uint64 // bitmask of currently blocked inputs

	mu   sync.Mutex
	sink Sink // the operator (set on first hold; replay target)
	held []heldItem
}

// park holds it when its input is blocked and reports whether it did;
// on false the caller delivers the item itself. A nil Gate (a sink that
// never blocks) parks nothing.
func (g *Gate) park(it heldItem, sink Sink) bool {
	if g == nil || !g.blockedInput(it.input) {
		return false
	}
	g.mu.Lock()
	// Re-check under the lock: an unblock may have completed in between,
	// and once it has, parking would reorder this item behind none.
	if !g.blockedInput(it.input) {
		g.mu.Unlock()
		return false
	}
	g.sink = sink
	g.held = append(g.held, it)
	g.mu.Unlock()
	return true
}

// blockedInput reports whether input is currently blocked — the one-load
// check of the Transfer/TransferBatch fast path. A false result is stable
// for the caller: an input is only ever blocked from its own (serialised)
// control stream, so it cannot flip to blocked concurrently with a data
// transfer on the same edge.
func (g *Gate) blockedInput(input int) bool {
	return g.blocked.Load()&(1<<uint(input)) != 0
}

// block marks input as blocked: subsequently published items on it are
// parked until release.
func (g *Gate) block(input int) {
	g.mu.Lock()
	g.blocked.Store(g.blocked.Load() | 1<<uint(input))
	g.mu.Unlock()
}

// release unblocks every input and replays the parked items, in arrival
// order, into the operator as Process, HandleControl or Done calls,
// returning how many were replayed. Publishers racing with the replay
// keep parking (the mask stays set until the backlog is empty), so
// per-edge order is preserved; the mask is cleared under the lock only
// when no parked item remains.
func (g *Gate) release() int {
	replayed := 0
	for {
		g.mu.Lock()
		if len(g.held) == 0 {
			g.blocked.Store(0)
			g.mu.Unlock()
			return replayed
		}
		batch := g.held
		sink := g.sink
		g.held = nil
		g.mu.Unlock()
		for _, h := range batch {
			switch h.ctl.(type) {
			case nil:
				sink.Process(h.e, h.input)
			case endOfStream:
				sink.Done(h.input)
			default:
				sink.(ControlSink).HandleControl(h.ctl, h.input)
			}
		}
		replayed += len(batch)
	}
}

// Held returns the number of currently parked items (for tests and
// memory accounting).
func (g *Gate) Held() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.held)
}

// barrierState is the per-operator alignment bookkeeping embedded in
// PipeBase. All fields are guarded by its own mutex — never by ProcMu —
// so control handling can run concurrently with data processing on other
// inputs.
type barrierState struct {
	mu       sync.Mutex
	cur      *Barrier // barrier currently aligning, nil when idle
	seen     uint64   // inputs the current barrier arrived on
	lastDone uint64   // highest barrier ID already handled (dedupe)
	// holdStart stamps the first input block of the current round (flight
	// clock, ns) so the alignment hold duration can be recorded on
	// release. Zero when no input blocked or flight recording is
	// detached.
	holdStart int64
}

// SetBarrierHooks installs the checkpoint callbacks: save runs under
// ProcMu once the barrier has aligned, before it is forwarded downstream
// (the operator is quiescent — serialise state here, do no I/O); ack runs
// after the barrier has been forwarded and blocked inputs replayed (the
// coordinator hand-off — see internal/ft). Either may be nil. Install
// hooks before the graph starts; they are not synchronised against a
// running graph.
func (p *PipeBase) SetBarrierHooks(save, ack func(Barrier)) {
	p.onBarrierSave = save
	p.onBarrierAck = ack
}

// BarrierGate implements Gated: only multi-input operators ever block.
func (p *PipeBase) BarrierGate() *Gate {
	if p.inputs <= 1 {
		return nil
	}
	return &p.gate
}

// HandleControl implements ControlSink for every operator embedding
// PipeBase: barriers align across inputs (see the package comment);
// non-barrier controls are forwarded downstream unchanged on first
// receipt per input, without alignment.
func (p *PipeBase) HandleControl(c Control, input int) {
	b, isBarrier := c.(Barrier)
	if !isBarrier {
		p.TransferControl(c)
		return
	}
	p.barrier.mu.Lock()
	if b.ID <= p.barrier.lastDone {
		// Duplicate (a closed input delivering late) — already handled.
		p.barrier.mu.Unlock()
		return
	}
	if p.barrier.cur == nil || p.barrier.cur.ID != b.ID {
		// A new round. With one outstanding checkpoint at a time (the
		// coordinator's contract) an older pending round can only mean
		// its remaining inputs died; adopt the newer barrier.
		p.barrier.cur = &b
		p.barrier.seen = 0
	}
	p.barrier.seen |= 1 << uint(input)
	round, holdStart, aligned := p.retireAligned()
	if !aligned {
		// Block this input until the others catch up.
		p.gate.block(input)
		if p.barrier.holdStart == 0 {
			if ref := p.fref.Load(); ref != nil {
				p.barrier.holdStart = ref.NowNS()
			}
		}
	}
	p.barrier.mu.Unlock()
	if aligned {
		p.completeBarrier(round, holdStart)
	}
}

// retireAligned is the one alignment check, run under barrier.mu: once
// every input has delivered the open round's barrier or closed, it
// retires the round and returns what completeBarrier needs.
func (p *PipeBase) retireAligned() (Barrier, int64, bool) {
	cur, all := p.barrier.cur, p.allInputs()
	if cur == nil || (p.barrier.seen|p.closedMask.Load())&all != all {
		return Barrier{}, 0, false
	}
	p.barrier.cur = nil
	p.barrier.lastDone = cur.ID
	holdStart := p.barrier.holdStart
	p.barrier.holdStart = 0
	return *cur, holdStart, true
}

// completeBarrier runs the aligned path of a round retireAligned retired.
func (p *PipeBase) completeBarrier(b Barrier, holdStart int64) {
	// 1: snapshot while quiescent. Blocked inputs are parked in the gate
	// and the aligning input's publisher is inside this call chain, so no
	// data element can enter Process between the snapshot and the forward.
	if p.onBarrierSave != nil {
		p.ProcMu.Lock()
		p.onBarrierSave(b)
		p.ProcMu.Unlock()
	}
	// 2: forward downstream before anything post-barrier is processed.
	p.TransferControl(b)
	// 3: replay parked items — their results are post-barrier.
	replayed := 0
	if p.inputs > 1 {
		replayed = p.gate.release()
	}
	if ref := p.fref.Load(); ref != nil {
		if holdStart != 0 {
			ref.Phase(flight.KindAlignHold, int64(b.ID), ref.NowNS()-holdStart, int64(replayed))
		}
		if replayed > 0 {
			ref.Phase(flight.KindGateReplay, int64(b.ID), int64(replayed), 0)
		}
	}
	// 4: hand the round back to the coordinator. Runs after the forward
	// so that when every operator has acked, every direct subscriber
	// (sinks included) has seen the barrier.
	if p.onBarrierAck != nil {
		p.onBarrierAck(b)
	}
}

// barrierInputClosed re-checks a pending alignment after an input
// signalled done: inputs that will never deliver the barrier count as
// aligned, otherwise a source finishing between two checkpoints would
// stall the round forever. Called by Done outside ProcMu.
func (p *PipeBase) barrierInputClosed() {
	p.barrier.mu.Lock()
	b, holdStart, aligned := p.retireAligned()
	p.barrier.mu.Unlock()
	if aligned {
		p.completeBarrier(b, holdStart)
	}
}
