// Package pubsub implements the inherent publish-subscribe architecture of
// PIPES: directed acyclic query graphs whose nodes are sources, sinks and
// pipes (operators). Subscriptions connect a source directly to the
// Process method of each subscribed sink — no inter-operator queue is
// involved — which is the paper's central overhead reduction. Explicit
// Buffer nodes reintroduce queues only where the scheduler places
// virtual-node boundaries.
//
// Node taxonomy (paper, section "Query Plans"):
//
//  1. A Source transfers its elements to a set of subscribed sinks.
//  2. A Sink subscribes to multiple sources and consumes their elements.
//  3. A Pipe combines both: it consumes, processes and re-publishes.
package pubsub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pipes/internal/telemetry/flight"
	"pipes/internal/temporal"
)

// Node is anything addressable in a query graph.
type Node interface {
	// Name returns a short human-readable identifier used by EXPLAIN
	// output, the monitor and the optimizer.
	Name() string
}

// Sink consumes stream elements from one or more subscribed sources. The
// input index distinguishes the sources of a multi-input operator (e.g. a
// join's left/right inputs).
type Sink interface {
	Node
	// Process consumes one element arriving on the given input. It is
	// invoked synchronously by the publishing source; implementations
	// must serialise internally if they can be subscribed to concurrently
	// publishing sources.
	Process(e temporal.Element, input int)
	// Done signals that no further elements will arrive on the given
	// input. Multi-input sinks act (flush, propagate) once all inputs are
	// done.
	Done(input int)
}

// Source publishes stream elements to its subscribed sinks.
type Source interface {
	Node
	// Subscribe registers sink to receive future elements on the sink's
	// given input index.
	Subscribe(sink Sink, input int) error
	// Unsubscribe removes a previously registered subscription.
	Unsubscribe(sink Sink, input int) error
	// Subscriptions returns a snapshot of the current subscriptions.
	Subscriptions() []Subscription
}

// Pipe is an operator: simultaneously a sink and a source.
type Pipe interface {
	Source
	Sink
}

// Subscription is one (sink, input) registration at a source.
type Subscription struct {
	Sink  Sink
	Input int

	// gate is the sink's barrier-alignment gate, cached at Subscribe time
	// so Transfer avoids a per-element type assertion. Nil for sinks that
	// never block (everything except multi-input operators).
	gate *Gate

	// batch is the sink's frame-consuming identity, cached at Subscribe
	// time so TransferBatch avoids a per-frame type assertion. Nil for
	// sinks served by the per-element fallback.
	batch BatchSink
}

// ErrDone is returned by Subscribe when the source has already signalled
// end-of-stream; new subscribers would never receive anything.
var ErrDone = errors.New("pubsub: source already signalled done")

// ErrNotSubscribed is returned by Unsubscribe when the (sink, input) pair
// is not registered.
var ErrNotSubscribed = errors.New("pubsub: not subscribed")

// SourceBase provides the reusable publishing half of a node: a
// thread-safe subscriber list plus Transfer/SignalDone. Embed it in
// sources and (via PipeBase) in operators.
//
// The subscriber list is copy-on-write: Subscribe/Unsubscribe build a new
// immutable slice under the write mutex, while Transfer and SignalDone
// read the current snapshot through an atomic pointer. Publishing is
// therefore lock-free and never races with subscription changes — the
// property that lets multiple scheduler workers drive disjoint parts of
// one query graph concurrently (see CONCURRENCY.md).
type SourceBase struct {
	name string

	mu   sync.Mutex                     // serialises subscription writes
	subs atomic.Pointer[[]Subscription] // immutable snapshot read by Transfer
	done atomic.Bool
	hook atomic.Pointer[TransferHook] // optional telemetry tap on Transfer

	// fref is the node's flight-recorder handle (nil = flight recording
	// detached; the hot-path cost is then one atomic pointer load).
	fref atomic.Pointer[flight.OpRef]

	// hookScratch is the publisher-owned frame TransferBatch annotates
	// into when a hook is installed (published frames may be views the
	// hook must not write through). Guarded by the Transfer serialisation
	// rule: one goroutine publishes at a time.
	hookScratch temporal.Batch
}

// TransferHook observes — and may annotate — every element a source
// publishes, immediately before the hand-off to the subscribers. The
// telemetry layer uses it to attach sampled trace contexts in the dispatch
// path; the hook must be fast and must not block.
type TransferHook func(e temporal.Element) temporal.Element

// NewSourceBase returns a SourceBase with the given display name.
func NewSourceBase(name string) SourceBase { return SourceBase{name: name} }

// Name implements Node.
func (s *SourceBase) Name() string { return s.name }

// SetName replaces the display name (used by decorators).
func (s *SourceBase) SetName(name string) { s.name = name }

// loadSubs returns the current immutable subscription snapshot.
func (s *SourceBase) loadSubs() []Subscription {
	if p := s.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// Subscribe implements Source.
func (s *SourceBase) Subscribe(sink Sink, input int) error {
	if sink == nil {
		return errors.New("pubsub: nil sink")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done.Load() {
		return ErrDone
	}
	cur := s.loadSubs()
	for _, sub := range cur {
		if sub.Sink == sink && sub.Input == input {
			return fmt.Errorf("pubsub: %s already subscribed to %s input %d", sink.Name(), s.name, input)
		}
	}
	next := make([]Subscription, len(cur)+1)
	copy(next, cur)
	sub := Subscription{Sink: sink, Input: input}
	if g, ok := sink.(Gated); ok {
		sub.gate = g.BarrierGate()
	}
	if bs, ok := sink.(BatchSink); ok {
		sub.batch = bs
	}
	next[len(cur)] = sub
	s.subs.Store(&next)
	return nil
}

// Unsubscribe implements Source.
func (s *SourceBase) Unsubscribe(sink Sink, input int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.loadSubs()
	for i, sub := range cur {
		if sub.Sink == sink && sub.Input == input {
			next := make([]Subscription, 0, len(cur)-1)
			next = append(next, cur[:i]...)
			next = append(next, cur[i+1:]...)
			s.subs.Store(&next)
			return nil
		}
	}
	return ErrNotSubscribed
}

// Subscriptions implements Source.
func (s *SourceBase) Subscriptions() []Subscription {
	cur := s.loadSubs()
	out := make([]Subscription, len(cur))
	copy(out, cur)
	return out
}

// Transfer publishes e synchronously to every subscribed sink. This direct
// hand-off — a plain method call into the consumer — is what replaces
// inter-operator queues. Transfer is lock-free; callers must serialise
// their own Transfer/SignalDone sequence (operators do so via ProcMu, the
// scheduler via single-owner task activation).
func (s *SourceBase) Transfer(e temporal.Element) {
	if h := s.hook.Load(); h != nil {
		e = (*h)(e)
	}
	for _, sub := range s.loadSubs() {
		// The open-gate path stays one inlined load before the direct
		// Process call; park's own checks run only on a blocked input.
		if sub.gate != nil && sub.gate.blockedInput(sub.Input) && sub.gate.park(heldItem{e: e, input: sub.Input}, sub.Sink) {
			continue // parked during barrier alignment; replayed on release
		}
		sub.Sink.Process(e, sub.Input)
	}
}

// SetTransferHook installs (or, with nil, removes) the publish tap. The
// cost when unset is one atomic pointer load per Transfer.
func (s *SourceBase) SetTransferHook(h TransferHook) {
	if h == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&h)
}

// SetFlightRef attaches (or with nil detaches) the node's flight-recorder
// handle. Attached, the batch lane records frame occupancy and buffers
// record depth waterlines through it, behind the recorder's 1-in-16
// stride.
func (s *SourceBase) SetFlightRef(ref *flight.OpRef) { s.fref.Store(ref) }

// FlightRef returns the attached flight handle (nil when detached).
func (s *SourceBase) FlightRef() *flight.OpRef { return s.fref.Load() }

// SignalDone propagates end-of-stream to all subscribers exactly once. It
// takes the stream position of the call like Transfer: on a blocked input
// it parks behind the elements already held there.
func (s *SourceBase) SignalDone() {
	if !s.done.CompareAndSwap(false, true) {
		return
	}
	for _, sub := range s.loadSubs() {
		if !sub.gate.park(heldItem{ctl: endOfStream{}, input: sub.Input}, sub.Sink) {
			sub.Sink.Done(sub.Input)
		}
	}
}

// IsDone reports whether SignalDone has been called.
func (s *SourceBase) IsDone() bool { return s.done.Load() }

// PipeBase provides the reusable consuming half of an operator on top of
// SourceBase: a processing mutex serialising Process/Done across
// concurrently publishing upstream sources, closed-input bookkeeping and a
// flush hook invoked once when every input has signalled done.
//
// Concrete operators embed PipeBase, implement Process themselves (taking
// ProcMu) and may set OnAllDone to flush buffered state before done
// propagates.
type PipeBase struct {
	SourceBase

	// ProcMu serialises element processing. Operators lock it in Process.
	ProcMu sync.Mutex

	// OnAllDone, if non-nil, runs under ProcMu once after the last input
	// signals done and before done is propagated downstream. Operators use
	// it to emit buffered results (the algebra stays non-blocking: results
	// are emitted as early as timestamps permit, this hook only drains the
	// tail).
	OnAllDone func()

	// OnInputDone, if non-nil, runs under ProcMu when an individual input
	// first signals done (before OnAllDone for the last input).
	// Multi-input operators use it to advance that input's watermark to
	// infinity and release buffered results.
	OnInputDone func(input int)

	inputs int

	// closedMask has one bit per input that has signalled done. Written
	// under ProcMu; atomic so barrier alignment (control.go) and InputDone
	// read it without taking ProcMu.
	closedMask atomic.Uint64

	// Barrier-alignment state (control.go). gate parks items of blocked
	// inputs; the hooks are the checkpoint coordinator's taps.
	gate          Gate
	barrier       barrierState
	onBarrierSave func(Barrier)
	onBarrierAck  func(Barrier)
}

// NewPipeBase returns a PipeBase for an operator with the given number of
// inputs (its arity).
func NewPipeBase(name string, inputs int) PipeBase {
	if inputs <= 0 {
		panic("pubsub: operator arity must be positive")
	}
	if inputs > 64 {
		panic("pubsub: operator arity exceeds 64 (closedMask/barrier bitmask width)")
	}
	return PipeBase{SourceBase: NewSourceBase(name), inputs: inputs}
}

// Inputs returns the operator arity.
func (p *PipeBase) Inputs() int { return p.inputs }

// allInputs is the closedMask/barrier bitmask with every input set.
func (p *PipeBase) allInputs() uint64 { return uint64(1)<<uint(p.inputs) - 1 }

// Done implements Sink. It tolerates duplicate done signals per input and
// out-of-range inputs are ignored (defensive: a miswired graph should not
// crash the runtime).
func (p *PipeBase) Done(input int) {
	if input < 0 || input >= p.inputs {
		return
	}
	p.ProcMu.Lock()
	mask := p.closedMask.Load()
	if mask&(1<<uint(input)) != 0 {
		p.ProcMu.Unlock()
		return
	}
	mask |= 1 << uint(input)
	p.closedMask.Store(mask)
	last := mask == p.allInputs()
	if p.OnInputDone != nil {
		p.OnInputDone(input)
	}
	if last && p.OnAllDone != nil {
		p.OnAllDone()
	}
	p.ProcMu.Unlock()
	p.barrierInputClosed()
	if last {
		p.SignalDone()
	}
}

// InputDone reports whether the given input has signalled done.
func (p *PipeBase) InputDone(input int) bool {
	return input >= 0 && input < p.inputs && p.closedMask.Load()&(1<<uint(input)) != 0
}

// Connect subscribes each pipe in the chain to its predecessor and returns
// the last node, enabling fluent graph construction:
//
//	pubsub.Connect(src, filter, window, agg)
//	agg.Subscribe(sink, 0)
func Connect(src Source, pipeChain ...Pipe) Source {
	cur := src
	for _, p := range pipeChain {
		if err := cur.Subscribe(p, 0); err != nil {
			panic(fmt.Sprintf("pubsub: Connect: %v", err))
		}
		cur = p
	}
	return cur
}
