package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pipes"
	"pipes/internal/cursor"
	"pipes/internal/ft"
	"pipes/internal/nexmark"
	"pipes/internal/pubsub"
)

const (
	// nexmarkEvents is the generated event count of one repetition
	// (about 92% of NEXMark events are bids).
	nexmarkEvents = 45_000
	// nexmarkGapMS is the mean event gap in application time: it sets
	// how many bids the one-minute windows hold, i.e. the operator state
	// every checkpoint round captures.
	nexmarkGapMS = 40
	// roundEvery is the checkpoint cadence in bids: a round is triggered
	// each time this many more bids have been published. No wall-clock
	// interval is involved, so every host seals the same rounds.
	roundEvery = 8_000
	// sealTimeout bounds the source's wait for the previous seal.
	sealTimeout = 30 * time.Second
)

var nexmarkQueries = []query{
	{"highest-bid", nexmark.QueryHighestBid},
	{"currency-conversion", nexmark.QueryCurrencyConversion},
	{"bid-counts", nexmark.QueryBidCounts},
	{"hot-auctions", nexmark.QueryHotAuctions},
	{"last-bid", nexmark.QueryLastBid},
	{"bidder-join", nexmark.QueryBidderJoin},
}

// nexInput is one seed's pre-generated auction data: the bid stream and
// the person table the join reads through a cursor.
type nexInput struct {
	bids  []pipes.Element
	store *nexmark.Store
}

func genNexmark(seed int64, events int) nexInput {
	store := nexmark.NewStore()
	g := nexmark.NewGenerator(nexmark.Config{Seed: seed, MaxEvents: events, MeanGapMS: nexmarkGapMS}, store)
	var in nexInput
	in.store = store
	for {
		ev, ok := g.Next()
		if !ok {
			return in
		}
		if ev.Kind == nexmark.EvBid {
			in.bids = append(in.bids, pipes.At(nexmark.BidTuple(ev.Bid), ev.Time))
		}
	}
}

// persons returns the person relation as a cursor source, skipping the
// first skip tuples (the replay offset after recovery).
func (in nexInput) persons(skip int) pipes.Source {
	cur := in.store.PersonsCursor()
	for i := 0; i < skip; i++ {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	return pipes.NewCursorSource("persons", cursor.FromFunc(cur.Next), pipes.RelationStamp(0))
}

func (in nexInput) plannedRounds() int { return (len(in.bids) - 1) / roundEvery }

// roundSource publishes the pre-generated bids and drives checkpoint
// rounds by element count: once roundEvery more bids have gone out it
// waits until the previous round has sealed, then triggers the next.
// The facade wraps it in the checkpoint source that injects the barrier.
type roundSource struct {
	*pubsub.SliceSource
	d         *pipes.DSMS
	c         *checks
	sp        *spans
	parent    int
	planned   int
	emitted   int
	triggered int
	sealed    atomic.Int64
	wake      chan struct{}
	waits     []float64 // ms per trigger

	mu    sync.Mutex
	round map[uint64]int // open Trigger→seal span per round id
}

func newRoundSource(d *pipes.DSMS, bids []pipes.Element, planned int, c *checks, sp *spans, parent int) *roundSource {
	s := &roundSource{
		SliceSource: pipes.NewSliceSource("bids", bids),
		d:           d, c: c, sp: sp, parent: parent, planned: planned,
		wake:  make(chan struct{}, 1),
		round: map[uint64]int{},
	}
	d.Checkpoints.OnEvent(func(ev ft.Event) {
		switch ev.Stage {
		case "sealed":
		case "failed":
			s.c.check("ft.round_write", false, fmt.Sprintf("round %d failed to write", ev.ID))
		default:
			return
		}
		// Sealed or failed, the round is retired and the next may start.
		s.mu.Lock()
		s.sp.end(s.round[ev.ID])
		delete(s.round, ev.ID)
		s.mu.Unlock()
		s.sealed.Add(1)
		select {
		case s.wake <- struct{}{}:
		default:
		}
	})
	return s
}

func (s *roundSource) EmitNext() bool {
	more := s.SliceSource.EmitNext()
	if more {
		s.advance(1)
	}
	return more
}

func (s *roundSource) EmitBatch(max int) (int, bool) {
	n, more := s.SliceSource.EmitBatch(max)
	if more {
		s.advance(n)
	}
	return n, more
}

// advance counts published bids and, at each roundEvery boundary, waits
// for the previous seal and triggers the next round. It runs on the
// scheduler worker driving this source, between two frames.
func (s *roundSource) advance(n int) {
	s.emitted += n
	if s.triggered >= s.planned || s.emitted < (s.triggered+1)*roundEvery {
		return
	}
	id := s.sp.begin("ft", "wait for seal", "bids-source", s.parent)
	t0 := time.Now()
	timeout := time.NewTimer(sealTimeout)
	for s.sealed.Load() < int64(s.triggered) {
		select {
		case <-s.wake:
		case <-timeout.C:
			s.c.check("ft.seal_wait", false, fmt.Sprintf("round %d not sealed after %v", s.triggered, sealTimeout))
			s.sealed.Store(int64(s.triggered))
		}
	}
	timeout.Stop()
	s.waits = append(s.waits, float64(time.Since(t0).Nanoseconds())/1e6)
	s.sp.end(id)
	span := s.sp.begin("ft", fmt.Sprintf("round %d Trigger→seal", s.triggered+1), "checkpoint", s.parent)
	rid, err := s.d.Checkpoints.Trigger()
	s.c.checkf("ft.trigger", err == nil, "trigger %d: %v", s.triggered+1, err)
	// The round cannot seal before its barrier leaves this source on the
	// next frame, so the span is registered before the seal can end it.
	s.mu.Lock()
	s.round[rid] = span
	s.mu.Unlock()
	s.triggered++
}

func runNexmark(e *env) (*result, error) {
	in := genNexmark(e.seed, nexmarkEvents)
	register := func(d *pipes.DSMS) {
		d.RegisterStream("bids", pipes.NewSliceSource("bids", in.bids), 2000)
		d.RegisterStream("persons", in.persons(0), 10)
	}
	ref, err := referenceDigests(nexmarkQueries, register)
	if err != nil {
		return nil, err
	}
	var reps []closedRep
	var recovery []float64
	deadline := time.Now().Add(e.seconds)
	for i := 0; time.Now().Before(deadline) || len(reps) < 2; i++ {
		traced := e.trace && i%2 == 1
		rep, rec, err := nexmarkRep(e, in, ref, traced)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		if !traced {
			recovery = append(recovery, rec)
		}
	}
	res := closedResult(e, reps)
	res.info["recovery_s"] = median(recovery)
	res.samples["recovery_s"] = len(recovery)
	res.notes = append(res.notes, fmt.Sprintf("checkpoint rounds: %d planned per repetition, one every %d bids",
		in.plannedRounds(), roundEvery))
	return res, nil
}

func nexmarkRep(e *env, in nexInput, ref []digest, traced bool) (closedRep, float64, error) {
	var sp *spans
	if traced {
		sp = e.sp
	}
	runtime.GC()
	dir, err := os.MkdirTemp(filepath.Join(e.workdir, "tmp"), "ckpt-")
	if err != nil {
		return closedRep{}, 0, err
	}
	defer os.RemoveAll(dir)
	cfg := pipes.Config{Workers: e.nproc, CheckpointDir: dir, MonitorQueries: traced}
	rep := closedRep{Traced: traced, Inputs: len(in.bids), Layers: map[string]float64{}}
	planned := in.plannedRounds()

	t0 := time.Now()
	root := sp.begin("engine", "nexmark-checkpointed rep", "main", 0)
	d := pipes.NewDSMS(cfg)
	src := newRoundSource(d, in.bids, planned, e.c, sp, root)
	d.RegisterStream("bids", src, 2000)
	d.RegisterStream("persons", in.persons(0), 10)
	var sinks []*ft.CheckpointSink
	var nNew, nShared int
	for _, q := range nexmarkQueries {
		id := sp.begin("optimizer", "RegisterQuery "+q.Label, "main", root)
		rq, err := d.RegisterQuery(q.CQL)
		sp.end(id)
		if err != nil {
			return rep, 0, fmt.Errorf("register %s: %w", q.Label, err)
		}
		nNew += rq.Instance.NewNodes
		nShared += rq.Instance.SharedNodes
		sink := pipes.NewCheckpointSink(q.Label)
		d.Checkpoints.RegisterSink(sink)
		if err := rq.Subscribe(sink); err != nil {
			return rep, 0, err
		}
		sinks = append(sinks, sink)
	}
	rep.Setup = time.Since(t0)

	var mem *memPeaks
	var probe func()
	if traced {
		mem = &memPeaks{d: d}
		probe = mem.probe
	}
	w := openWindow(probe)
	run := sp.begin("sched", "Start→Wait", "main", root)
	d.Start()
	d.Wait()
	sp.end(run)
	rep.Phase = w.close()

	got := make([]digest, len(sinks))
	for i, s := range sinks {
		e.c.checkf("nexmark.sink_done."+shortName(nexmarkQueries[i].Label), s.IsDone(), "sink not done after Wait")
		got[i] = digestElements(s.Elements())
	}
	compareOutputs(e.c, "nexmark", queryLabels(nexmarkQueries), got, ref)
	sealed := int(d.Checkpoints.Completed())
	for r := 1; r <= planned; r++ {
		e.c.checkf("ft.round_sealed", r <= sealed, "%d of %d planned rounds sealed", sealed, planned)
	}
	lastID := d.Checkpoints.LastCheckpointID()
	if traced {
		rounds := float64(max(sealed, 1))
		engineLayers(d, rep.Layers, len(in.bids), mem, nNew, nShared)
		rep.Layers["ft.rounds_sealed"] = float64(sealed)
		rep.Layers["ft.seal_wait_ms"] = median(src.waits)
		rep.Layers["ft.barrier_stall_ms"] = float64(d.Checkpoints.StallNanosTotal()) / 1e6 / rounds
		full, written := float64(d.Checkpoints.FullBytesTotal()), float64(d.Checkpoints.WrittenBytesTotal())
		rep.Layers["ft.full_bytes_per_round"] = full / rounds
		rep.Layers["ft.written_bytes_per_round"] = written / rounds
		if full > 0 {
			rep.Layers["ft.delta_ratio"] = written / full
		}
		if d.Flight != nil {
			align, snap, enc, wr := d.Flight.PhaseHistograms()
			rep.Layers["ft.phase_align_ms"] = float64(align.Quantile(0.5)) / 1e6
			rep.Layers["ft.phase_snapshot_ms"] = float64(snap.Quantile(0.5)) / 1e6
			rep.Layers["ft.phase_encode_ms"] = float64(enc.Quantile(0.5)) / 1e6
			rep.Layers["ft.phase_write_ms"] = float64(wr.Quantile(0.5)) / 1e6
		}
		es := scrapeEndpoints(d, e.c, sp, root)
		rep.Layers["telemetry.scrape_ms"] = es.MetricsMS
		rep.Layers["telemetry.series"] = float64(es.Series)
	}
	d.Stop()

	recovery, err := recoverAndCheck(e, in, cfg, sinks, lastID, rep.Layers, sp, root)
	sp.end(root)
	return rep, recovery, err
}

// recoverAndCheck rebuilds the engine from the last sealed round, replays
// the tail past its offsets and checks every query's recovered output
// against the uninterrupted run's output past the same sink cut. It
// returns the recovery time: rebuild plus RecoverLatest.
func recoverAndCheck(e *env, in nexInput, cfg pipes.Config, sinks []*ft.CheckpointSink, lastID uint64,
	layers map[string]float64, sp *spans, parent int) (float64, error) {
	if !e.c.checkf("ft.recover.sealed_round", lastID > 0, "no sealed round to recover from") {
		return 0, nil
	}
	cfg.MonitorQueries = false
	t0 := time.Now()
	rb := sp.begin("ft", "rebuild", "main", parent)
	d := pipes.NewDSMS(cfg)
	cp, err := d.LatestCheckpoint()
	if !e.c.checkf("ft.recover.latest", err == nil && cp != nil && cp.ID == lastID,
		"latest checkpoint %v (err %v), want id %d", cpID(cp), err, lastID) {
		sp.end(rb)
		return 0, nil
	}
	bOff, pOff := cp.Offset("bids"), cp.Offset("persons")
	d.RegisterStream("bids", pipes.NewSliceSource("bids", in.bids[bOff:]), 2000)
	d.RegisterStream("persons", in.persons(pOff), 10)
	replayed, _, _, err := registerQueries(d, nexmarkQueries, sp, rb)
	if err != nil {
		return 0, err
	}
	rebuild := time.Since(t0)
	sp.end(rb)
	ld := sp.begin("ft", "RecoverLatest", "main", parent)
	t1 := time.Now()
	_, err = d.RecoverLatest()
	load := time.Since(t1)
	recovery := time.Since(t0)
	sp.end(ld)
	if !e.c.checkf("ft.recover.load", err == nil, "RecoverLatest: %v", err) {
		return recovery.Seconds(), nil
	}
	run := sp.begin("sched", "replay Start→Wait", "main", parent)
	d.Start()
	d.Wait()
	sp.end(run)
	for i, r := range replayed {
		got := r.wait()
		cut, ok := sinks[i].Cut(lastID)
		label := shortName(nexmarkQueries[i].Label)
		if !e.c.checkf("ft.recover.cut."+label, ok, "sink has no cut for round %d", lastID) {
			continue
		}
		want := digestElements(sinks[i].Elements()[cut:])
		e.c.checkf("ft.recover.output."+label, got.same(want),
			"replayed tail %v, uninterrupted past cut %v", got, want)
	}
	d.Stop()
	layers["ft.rebuild_ms"] = float64(rebuild.Nanoseconds()) / 1e6
	layers["ft.recover_load_ms"] = float64(load.Nanoseconds()) / 1e6
	return recovery.Seconds(), nil
}

func cpID(cp *pipes.Checkpoint) any {
	if cp == nil {
		return nil
	}
	return cp.ID
}
