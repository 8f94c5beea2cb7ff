package pubsub

import (
	"encoding/gob"
	"sync"
	"sync/atomic"
	"time"

	"pipes/internal/telemetry"
	"pipes/internal/temporal"
	"pipes/internal/xds"
)

// queued is one buffered element plus its enqueue wall-stamp (0 when
// queue-time telemetry is off, so the hot path pays no clock read).
// When ctl is non-nil the entry is an in-band control element occupying
// its stream position in the queue, and e is zero; end-of-stream is the
// control endOfStream. When b is non-nil the entry is a whole frame
// (batch lane): the buffer owns a copy of the published frame — the
// buffer is the one asynchronous consumer, so it cannot borrow
// (temporal.Batch) — and re-publishes it as one unit on drain, recycling
// the backing array through a free list afterwards.
// Controls always occupy their own entry, so a punctuation still cuts
// cleanly between frames.
type queued struct {
	e   temporal.Element
	b   temporal.Batch
	at  int64
	ctl Control
}

// size returns how many work units (elements, controls or done) the entry
// represents.
func (q queued) size() int {
	if q.b != nil {
		return len(q.b)
	}
	return 1
}

// Clock is the injectable time source for queue-time telemetry. It is
// declared structurally (rather than importing metadata.Clock, which
// would cycle: metadata imports pubsub) so metadata.SystemClock and
// metadata.FakeClock satisfy it implicitly. Raw time.Now in operator
// hot paths is forbidden (pipesvet:hotpathclock); the buffer reads the
// wall clock only through this seam, and only when telemetry asked it
// to.
type Clock interface {
	Now() time.Time
}

// systemClock is the default Clock: the real time.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// Buffer is an explicit inter-operator queue, modelled as a pipe. PIPES
// connects operators directly and inserts buffers only at virtual-node
// boundaries, where the scheduler decouples producer and consumer threads:
// Process enqueues, Drain (called by the scheduler) dequeues and publishes.
//
// Done is enqueued like a control, so it leaves the buffer behind every
// element and control that preceded it. A buffer must be drained by a
// single scheduler thread at a time; Process may be called concurrently
// with Drain.
type Buffer struct {
	SourceBase

	// queueHist, when set, records per-element residence time (enqueue to
	// dequeue) — the "queue time" half of the telemetry layer's latency
	// split. Swapped atomically so it can be attached to a running buffer.
	queueHist atomic.Pointer[telemetry.Histogram]

	// clock stamps enqueue/dequeue times for queue-time telemetry.
	// Defaults to the system clock; tests inject a fake via SetClock.
	// Swapped atomically for the same reason as queueHist: it can be
	// attached while the buffer is live.
	clock atomic.Pointer[Clock]

	mu    sync.Mutex
	q     xds.Queue[queued]
	count int              // buffered work units: elements (frames count len) + controls + done
	free  []temporal.Batch // recycled frame storage for ProcessBatch copies
}

// NewBuffer returns an unbounded buffer.
func NewBuffer(name string) *Buffer {
	return &Buffer{SourceBase: NewSourceBase(name), q: xds.NewQueue[queued]()}
}

// SetQueueTimeHistogram attaches (or with nil detaches) the histogram
// recording element residence time in this buffer, in nanoseconds.
func (b *Buffer) SetQueueTimeHistogram(h *telemetry.Histogram) { b.queueHist.Store(h) }

// QueueTimeHistogram returns the attached residence-time histogram (nil
// when telemetry is off).
func (b *Buffer) QueueTimeHistogram() *telemetry.Histogram { return b.queueHist.Load() }

// SetClock injects the time source used for residence-time stamps.
// Passing nil restores the system clock.
func (b *Buffer) SetClock(c Clock) {
	if c == nil {
		b.clock.Store(nil)
		return
	}
	b.clock.Store(&c)
}

// now reads the injected clock, falling back to the system clock.
func (b *Buffer) now() int64 {
	if c := b.clock.Load(); c != nil {
		return (*c).Now().UnixNano()
	}
	return systemClock{}.Now().UnixNano()
}

// Process implements Sink by enqueueing.
func (b *Buffer) Process(e temporal.Element, _ int) {
	var at int64
	if b.queueHist.Load() != nil || e.Trace != nil {
		at = b.now()
	}
	b.mu.Lock()
	b.q.Enqueue(queued{e: e, at: at}) // unbounded queue: cannot fail
	b.count++
	d := b.count
	b.mu.Unlock()
	if ref := b.fref.Load(); ref != nil {
		ref.Enqueue(1, d)
	}
}

// ProcessBatch implements BatchSink by enqueueing the whole frame as one
// entry. The published frame is only borrowed for this call, so the
// buffer copies it into buffer-owned storage (recycled from the free
// list Drain refills) and re-publishes the copy as one unit by Drain.
func (b *Buffer) ProcessBatch(batch temporal.Batch, _ int) {
	if len(batch) == 0 {
		return
	}
	var at int64
	if b.queueHist.Load() != nil {
		at = b.now()
	}
	b.mu.Lock()
	var own temporal.Batch
	if n := len(b.free); n > 0 {
		own = b.free[n-1][:0]
		b.free = b.free[:n-1]
	}
	own = append(own, batch...)
	b.q.Enqueue(queued{b: own, at: at})
	b.count += len(own)
	d := b.count
	b.mu.Unlock()
	if ref := b.fref.Load(); ref != nil {
		ref.Enqueue(len(batch), d)
	}
}

// HandleControl implements ControlSink by enqueueing the control at its
// arrival position: it is re-published by the Drain call that dequeues
// it, after every data element that preceded it — FIFO passage is what
// lets checkpoints treat buffer contents as pre-barrier state recorded
// upstream (see FAULT_TOLERANCE.md).
func (b *Buffer) HandleControl(c Control, _ int) {
	b.mu.Lock()
	b.q.Enqueue(queued{ctl: c})
	b.count++
	b.mu.Unlock()
}

// Done implements Sink by enqueueing end-of-stream at its arrival
// position, like a control: the Drain call that dequeues it propagates
// done downstream, after everything that preceded it.
func (b *Buffer) Done(_ int) { b.HandleControl(endOfStream{}, 0) }

// Drain dequeues and publishes up to max elements (all buffered elements
// if max <= 0) and returns how many were transferred. A frame entry is
// always re-published whole — a drain never splits a frame, so the count
// may overshoot max by at most one frame. Dequeuing the done entry
// propagates done downstream. At most one goroutine may drain at a time
// (the scheduler guarantees this via single-owner task activation);
// Process and Done may be called concurrently with Drain.
func (b *Buffer) Drain(max int) int {
	n := 0
	b.mu.Lock()
	for max <= 0 || n < max {
		qe, ok := b.q.Dequeue()
		if !ok {
			break
		}
		b.count -= qe.size()
		b.mu.Unlock()
		switch {
		case qe.ctl == Control(endOfStream{}):
			b.SignalDone()
			n++
		case qe.ctl != nil:
			b.TransferControl(qe.ctl)
			n++
		case qe.b != nil:
			b.observeFrame(qe)
			b.TransferBatch(qe.b)
			n += len(qe.b)
			// The downstream borrow ended with TransferBatch's return:
			// recycle the buffer-owned frame for future enqueue copies.
			b.mu.Lock()
			if len(b.free) < 16 {
				b.free = append(b.free, qe.b)
			}
			b.mu.Unlock()
		default:
			if qe.at != 0 {
				wait := b.now() - qe.at
				if h := b.queueHist.Load(); h != nil {
					h.Observe(wait)
				}
			}
			if tr := telemetry.FromElement(qe.e); tr != nil {
				tr.Hop(b.Name(), "queue", qe.e.Start)
			}
			b.Transfer(qe.e)
			n++
		}
		b.mu.Lock()
	}
	depth := b.count
	b.mu.Unlock()
	if ref := b.fref.Load(); ref != nil && n > 0 {
		ref.Drained(n, depth)
	}
	return n
}

// observeFrame records queue-time telemetry for a dequeued frame: one
// residence-time observation per element (keeping histogram counts
// element-denominated, like the scalar lane) and one "queue" hop per
// traced element.
func (b *Buffer) observeFrame(qe queued) {
	if qe.at != 0 {
		if h := b.queueHist.Load(); h != nil {
			wait := b.now() - qe.at
			for range qe.b {
				h.Observe(wait)
			}
		}
	}
	for _, e := range qe.b {
		if tr := telemetry.FromElement(e); tr != nil {
			tr.Hop(b.Name(), "queue", e.Start)
		}
	}
}

// bufferState is the serialised checkpoint form of a Buffer: the queued
// data elements with trace slots and telemetry stamps dropped. Controls
// are not saved — a checkpoint is only sealed after its barrier drained
// through, and any later control belongs to the next round.
//
// Note that barrier checkpoints never actually need this: the barrier is
// enqueued behind all pre-barrier data, so by the time downstream
// operators snapshot (on barrier receipt) every pre-barrier element has
// drained out of the buffer and into their state (see FAULT_TOLERANCE.md).
// Save/LoadState exist for completeness — e.g. quiesced whole-graph
// suspension, where buffers may hold data.
type bufferState struct {
	Elems []struct {
		Value any
		Start temporal.Time
		End   temporal.Time
	}
}

// SnapshotState implements the ft.HandleSaver contract: the queued data
// elements are flattened into a capture slice under b.mu; the returned
// closure encodes the capture without touching the live queue, so the
// gob encode runs on the checkpoint writer while the buffer keeps
// accepting post-barrier work.
func (b *Buffer) SnapshotState() (func(enc *gob.Encoder) error, error) {
	b.mu.Lock()
	var st bufferState
	add := func(e temporal.Element) {
		st.Elems = append(st.Elems, struct {
			Value any
			Start temporal.Time
			End   temporal.Time
		}{e.Value, e.Start, e.End})
	}
	for _, qe := range b.q.Items() {
		switch {
		case qe.ctl != nil:
		case qe.b != nil:
			for _, e := range qe.b {
				add(e)
			}
		default:
			add(qe.e)
		}
	}
	b.mu.Unlock()
	return func(enc *gob.Encoder) error { return enc.Encode(st) }, nil
}

// SaveState implements the ft.StateSaver contract. Unlike operator
// SaveState it locks internally: Buffer has no ProcMu and the barrier
// protocol never calls this on the hot path.
func (b *Buffer) SaveState(enc *gob.Encoder) error {
	fn, err := b.SnapshotState()
	if err != nil {
		return err
	}
	return fn(enc)
}

// LoadState implements the ft.StateLoader contract.
func (b *Buffer) LoadState(dec *gob.Decoder) error {
	var st bufferState
	if err := dec.Decode(&st); err != nil {
		return err
	}
	b.mu.Lock()
	for _, w := range st.Elems {
		b.q.Enqueue(queued{e: temporal.Element{
			Value:    w.Value,
			Interval: temporal.Interval{Start: w.Start, End: w.End},
			Trace:    nil,
		}})
		b.count++
	}
	b.mu.Unlock()
	return nil
}

// Len returns the number of buffered work units: data elements (a frame
// counts its length) plus in-band controls and a pending done.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}
