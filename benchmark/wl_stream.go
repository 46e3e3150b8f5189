package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"time"

	"graphtinker"
	"graphtinker/internal/core"
	"graphtinker/internal/ingest"
	"graphtinker/internal/replication"
	"graphtinker/internal/wal"
)

// stream is both whole-path workloads. A mixed insert/delete stream goes
// through the root facade — OpenReplicatedStream over two shards with a
// 2ms group commit and a checkpoint every quarter of the stream — while
// one ReplicaFollower, attached over loopback TCP, applies it. The load
// generator is two goroutines: a producer and a watcher that waits for
// each batch on the follower.
//
// stream-durable is closed-loop: updateBatch-op PushBatch calls back to
// back, Flush after every flushEvery-th, so a slow system gets less load.
// stream-paced is open-loop: pacedBatch-op batches on a fixed schedule,
// each PushBatch+Flush, timed from the moment the batch was due.
type stream struct {
	cfg   runConfig
	name  string
	paced bool
	nOps  int // ops per round
	crc   uint32
	o     *oracle

	// prefixS is the last traced round's time from the first push until
	// the follower showed the ladder prefix; the ladder is held against it.
	prefixS float64
}

const saltStream = 0x57

func newStreamDurable(cfg runConfig) (workload, error) {
	return newStream(cfg, "stream-durable", false)
}
func newStreamPaced(cfg runConfig) (workload, error) { return newStream(cfg, "stream-paced", true) }

// streamOps generates the workload's op sequence. The paced stream is a
// prefix of the durable one: the same ops, fewer of them. Its head is
// pushed closed-loop during set-up and its tail on the schedule.
func streamOps(cfg runConfig, paced bool) ([]core.EdgeOp, []core.Edge, error) {
	tuples, _, err := genTuples("RMAT_1M_10M", cfg.size.streamDivisor, cfg.seed, saltStream)
	if err != nil {
		return nil, nil, err
	}
	n := cfg.size.streamBatches * updateBatch
	if paced {
		n = cfg.size.pacedPreload + cfg.size.pacedBatches*pacedBatch
	}
	if n > len(tuples) {
		return nil, nil, fmt.Errorf("stream needs %d tuples, dataset has %d", n, len(tuples))
	}
	tuples = tuples[:n]
	return mixedStream(tuples, cfg.size.deleteLag), tuples, nil
}

func newStream(cfg runConfig, name string, paced bool) (workload, error) {
	ops, tuples, err := streamOps(cfg, paced)
	if err != nil {
		return nil, err
	}
	o, err := buildOracle(ops, tuples, cfg.size.queryBundles, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	return &stream{cfg: cfg, name: name, paced: paced, nOps: len(ops), crc: checksumOps(ops), o: o}, nil
}

func (w *stream) inputChecksum() uint32 { return w.crc }

// snapshotEvery is a quarter of the stream, rounded up to whole batches
// plus one so that the last checkpoint falls before the stream's end and
// recovery has both a snapshot to load and a WAL tail to replay.
func (w *stream) snapshotEvery() uint64 {
	b := updateBatch
	if w.paced {
		b = pacedBatch
	}
	return uint64((w.nOps/b/4 + 1) * b)
}

// ckptMirror repeats the facade's auto-checkpoint rule — a checkpoint
// runs inline in the PushBatch that brings the ops since the last one to
// SnapshotEvery — to know which calls ran one and where the last one fell.
type ckptMirror struct {
	every, since uint64
	lsn, last    uint64 // ops pushed so far; LSN of the last checkpoint
	count        int
}

// pushed accounts for one PushBatch of n ops and reports whether it ran
// a checkpoint.
func (m *ckptMirror) pushed(n int) bool {
	m.lsn += uint64(n)
	if m.since += uint64(n); m.since < m.every {
		return false
	}
	m.since, m.last = 0, m.lsn
	m.count++
	return true
}

// rig is one primary with one follower attached, and the recorders the
// traced run reads.
type rig struct {
	primary  *graphtinker.ReplicatedStream
	follower *graphtinker.ReplicaFollower
	addr     string
	dialDone chan error

	walRec      *wal.Recorder
	ingestRec   *ingest.Recorder
	shipRec     *replication.Recorder
	applyRec    *replication.Recorder
	followerWal *wal.Recorder
}

func streamOptions(snapshotEvery uint64, r *rig) graphtinker.ReplicatedStreamOptions {
	opts := graphtinker.ReplicatedStreamOptions{
		Stream: graphtinker.DurableStreamOptions{
			Shards: 2,
			Durability: graphtinker.DurabilityOptions{
				SyncInterval:  2 * time.Millisecond,
				SnapshotEvery: snapshotEvery,
			},
		},
	}
	if r != nil {
		opts.Stream.Durability.Recorder = r.walRec
		opts.Stream.Pipeline.Recorder = r.ingestRec
		opts.Recorder = r.shipRec
	}
	return opts
}

// openFollower opens a follower directory and attaches it to addr,
// returning once the handshake is through.
func openFollower(dir, addr string, rec *replication.Recorder, walRec *wal.Recorder) (*graphtinker.ReplicaFollower, chan error, error) {
	rf, err := graphtinker.OpenFollower(core.DefaultConfig(), dir, graphtinker.FollowerHandleOptions{
		Shards:     2,
		Durability: graphtinker.DurabilityOptions{SyncInterval: 2 * time.Millisecond, Recorder: walRec},
		Recorder:   rec,
	})
	if err != nil {
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() { done <- rf.Dial(addr) }()
	deadline := time.Now().Add(10 * time.Second)
	for rf.State() == graphtinker.FollowerIdle {
		select {
		case err := <-done:
			_ = rf.Close() // the dial error is the one to report
			return nil, nil, fmt.Errorf("follower stream ended during handshake: %w", err)
		default:
		}
		if time.Now().After(deadline) {
			_ = rf.Close()
			return nil, nil, errors.New("follower did not attach within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return rf, done, nil
}

func openRig(dir string, snapshotEvery uint64, traced bool) (*rig, error) {
	r := &rig{}
	if traced {
		r.walRec, r.ingestRec = wal.NewRecorder(), ingest.NewRecorder()
		r.shipRec, r.applyRec = replication.NewRecorder(), replication.NewRecorder()
		r.followerWal = wal.NewRecorder()
	}
	var err error
	r.primary, err = graphtinker.OpenReplicatedStream(core.DefaultConfig(), filepath.Join(dir, "primary"), streamOptions(snapshotEvery, r))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		err = r.primary.Serve(ln)
	}
	if err != nil {
		r.primary.Crash()
		return nil, err
	}
	r.addr = ln.Addr().String()
	r.follower, r.dialDone, err = openFollower(filepath.Join(dir, "follower"), r.addr, r.applyRec, r.followerWal)
	if err != nil {
		r.primary.Crash()
		return nil, err
	}
	return r, nil
}

// closeFollower closes the follower and waits for its dial goroutine.
func closeFollower(rf *graphtinker.ReplicaFollower, done chan error) error {
	err := rf.Close()
	<-done // the stream's own end (EOF, closed) is expected here
	return err
}

// period is stream-paced's schedule: one pacedBatch every period.
func (w *stream) period() time.Duration {
	return time.Duration(pacedBatch / w.cfg.size.pacedRate * float64(time.Second))
}

// batchTimes is one update batch as the load generator saw it.
type batchTimes struct {
	from    time.Time // due time (open loop) or submit time (closed loop)
	ready   time.Time // when the generator could have sent it: due, or the previous batch's return if that was later
	sent    time.Time
	pushed  time.Time // PushBatch returned
	acked   time.Time // covering Flush returned
	visible time.Time // follower WaitForLSN(batch end) returned
	ckpt    bool      // this PushBatch ran an auto-checkpoint inline
}

type watchItem struct {
	batch  int
	endLSN uint64
}

// watch is the watcher goroutine: batch by batch it waits for the
// follower to apply the batch's last op.
func watch(rf *graphtinker.ReplicaFollower, items <-chan watchItem, bt []batchTimes, tr *tracer, fails *failLog, done chan<- struct{}) {
	defer close(done)
	for it := range items {
		sp := tr.begin("follower.WaitForLSN", int64(it.batch))
		err := rf.WaitForLSN(it.endLSN, 30*time.Second)
		tr.end(sp)
		bt[it.batch].visible = time.Now()
		if err != nil {
			fails.addf("batch %d: follower WaitForLSN(%d): %v", it.batch, it.endLSN, err)
		}
	}
}

// drive pushes ops through the primary and returns every batch's times.
func (w *stream) drive(e *env, r *rig, ops []core.EdgeOp, ckpt *ckptMirror, out *roundOut) []batchTimes {
	size := updateBatch
	if w.paced {
		size = pacedBatch
	}
	nb := len(ops) / size
	bt := make([]batchTimes, nb)
	items := make(chan watchItem, nb)
	watched := make(chan struct{})
	var watchFails failLog
	go watch(r.follower, items, bt, e.tr, &watchFails, watched)

	period := w.period()
	shown := ckpt.lsn // closed loop: the LSN the follower must show before the next flush group starts
	unacked := 0      // first batch not yet covered by a Flush
	start := time.Now()
	for k := 0; k < nb; k++ {
		b := &bt[k]
		if w.paced {
			b.from = start.Add(time.Duration(k) * period)
			b.ready = b.from
			if now := time.Now(); now.After(b.ready) {
				b.ready = now
			}
			time.Sleep(time.Until(b.from))
			b.sent = time.Now()
		} else {
			b.sent = time.Now()
			b.from, b.ready = b.sent, b.sent
		}
		sp := e.tr.begin("facade.PushBatch", int64(k))
		err := r.primary.PushBatch(ops[k*size : (k+1)*size])
		e.tr.end(sp)
		b.pushed = time.Now()
		if err != nil {
			out.fails.addf("batch %d: PushBatch: %v", k, err)
		}
		b.ckpt = ckpt.pushed(size)
		items <- watchItem{batch: k, endLSN: ckpt.lsn}
		e.clk.tick()
		if w.paced || (k+1)%flushEvery == 0 || k == nb-1 {
			sp := e.tr.begin("facade.Flush", int64(k))
			err := r.primary.Flush()
			e.tr.end(sp)
			now := time.Now()
			if err != nil {
				out.fails.addf("batch %d: Flush: %v", k, err)
			}
			for ; unacked <= k; unacked++ {
				bt[unacked].acked = now
			}
			// A closed-loop client runs no further ahead of its guarantee
			// than this: the follower must show the flush group before the
			// one just flushed. Unbounded, the follower's backlog wandered
			// between 200 and 500 ms from round to round at one throughput.
			if !w.paced {
				if err := r.follower.WaitForLSN(shown, 30*time.Second); err != nil {
					out.fails.addf("batch %d: follower WaitForLSN(%d): %v", k, shown, err)
				}
				shown = ckpt.lsn
			}
		}
	}
	close(items)
	<-watched
	out.fails.merge(watchFails)
	return bt
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (w *stream) round(e *env) (*roundOut, error) {
	out := newRoundOut()
	traced := e.tr != nil
	var sw stopwatch
	sw.start()
	ops, _, err := streamOps(e.cfg, w.paced)
	if err != nil {
		return nil, err
	}
	sw.stop()
	genS := sw.total.Seconds()
	base := heapInUse()
	sw.start()
	r, err := openRig(e.dir, w.snapshotEvery(), traced)
	if err != nil {
		return nil, err
	}
	sw.stop()
	followerOpen := true
	defer func() {
		if followerOpen {
			_ = closeFollower(r.follower, r.dialDone) // error path only; the first error is the one returned
		}
	}()
	ckpt := &ckptMirror{every: w.snapshotEvery()}
	pre := 0
	if w.paced {
		// Still set-up: bring the store to its working size, closed loop,
		// and let the follower catch up before the schedule starts.
		pre = e.cfg.size.pacedPreload
		start := time.Now()
		err := pushAll(ops[:pre], false, func(b []core.EdgeOp) error {
			ckpt.pushed(len(b))
			e.clk.tick()
			return r.primary.PushBatch(b)
		}, r.primary.Flush)
		if err == nil {
			err = r.follower.WaitForLSN(uint64(pre), 30*time.Second)
		}
		out.preloadS, out.preloadSlow = time.Since(start).Seconds(), e.clk.slowdown()
		if err != nil {
			r.primary.Crash()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	out.setupS = sw.total.Seconds()

	sp := e.tr.scope("stage.update")
	bt := w.drive(e, r, ops[pre:], ckpt, out)
	e.tr.end(sp)
	out.updateSlow = e.clk.slowdown()
	out.wallRate = w.paced
	first, last := bt[0].from, bt[len(bt)-1].visible
	out.updates = float64(len(ops) - pre)
	out.updateS = last.Sub(first).Seconds()
	out.attempted += len(ops)
	var ckptBatches []*batchTimes // the few whose PushBatch ran a checkpoint
	for i := range bt {
		if bt[i].ckpt {
			ckptBatches = append(ckptBatches, &bt[i])
		}
	}
	var ckptAckMs, lateMs []float64
	for i := range bt {
		b := &bt[i]
		ack := ms(b.acked.Sub(b.from))
		out.ackMs = append(out.ackMs, ack)
		out.visibleMs = append(out.visibleMs, ms(b.visible.Sub(b.from)))
		if w.paced && ack > e.cfg.size.ackLimitMs {
			out.fails.addf("batch %d: ack %.1fms after due, limit %.0fms", i, ack, e.cfg.size.ackLimitMs)
		}
		lateMs = append(lateMs, ms(b.sent.Sub(b.ready)))
		for _, c := range ckptBatches {
			if b.from.Before(c.pushed) && c.sent.Before(b.acked) {
				ckptAckMs = append(ckptAckMs, ack)
				break
			}
		}
	}

	if w.paced {
		out.checkLate(lateMs, w.period())
	}

	tot := r.primary.Totals()
	if tot.Pushed != uint64(len(ops)) || tot.Dropped != 0 || tot.WALDegraded || tot.DegradedShards != 0 {
		out.fails.addf("pipeline totals %+v after %d ops", tot, len(ops))
	}
	pst, fst := r.primary.Store(), r.follower.Store()
	w.o.checkState(pst, "primary", &out.fails)
	w.o.checkState(fst, "follower", &out.fails)
	w.o.checkLookups(fst, "follower", &out.fails)
	stats := pst.Stats()

	readStage(e, pst, w.o, out)
	if err := analyticsStage(e, pst, w.o, out); err != nil {
		return nil, err
	}
	if traced {
		if err := w.collect(e, r, bt, stats, out); err != nil {
			return nil, err
		}
		out.layer["gen.generate_s"] = genS
		out.layer["facade.ack_p99_during_checkpoint_ms"] = summarize(ckptAckMs).Tail
	}
	out.heapBytes = heapInUse() - base
	out.heapEdges = float64(pst.NumEdges())

	// Recovery: kill the primary, reopen its directory. The heap was
	// collected just above (see readStage).
	finalLSN := uint64(len(ops))
	e.clk.burst()
	sp = e.tr.begin("facade.Crash+OpenReplicatedStream", -1)
	start := time.Now()
	r.primary.Crash()
	re, err := graphtinker.OpenReplicatedStream(core.DefaultConfig(), filepath.Join(e.dir, "primary"), streamOptions(w.snapshotEvery(), nil))
	out.recoveryS = time.Since(start).Seconds()
	e.tr.end(sp)
	e.clk.burst()
	out.recoverySlow = e.clk.slowdown()
	if err != nil {
		return nil, fmt.Errorf("reopen after crash: %w", err)
	}
	out.attempted++
	info := re.Recovery()
	if got := info.SnapshotOps + info.ReplayedOps; got != finalLSN || re.NextLSN() != finalLSN {
		out.fails.addf("recovered %d+%d ops, next LSN %d; acked prefix is %d", info.SnapshotOps, info.ReplayedOps, re.NextLSN(), finalLSN)
	}
	if info.SnapshotOps != ckpt.last {
		out.fails.addf("recovered from a snapshot at LSN %d, last checkpoint was due at %d", info.SnapshotOps, ckpt.last)
	}
	w.o.checkState(re.Store(), "recovered store", &out.fails)
	w.o.checkLookups(re.Store(), "recovered store", &out.fails)
	if traced {
		out.layer["facade.checkpoints"] = float64(ckpt.count)
		out.layer["facade.reopen_snapshot_ops"] = float64(info.SnapshotOps)
		out.layer["facade.reopen_replayed_ops"] = float64(info.ReplayedOps)
		sp := e.tr.begin("facade.Checkpoint", -1)
		t0 := time.Now()
		err := re.Checkpoint()
		out.layer["facade.checkpoint_s"] = time.Since(t0).Seconds()
		e.tr.end(sp)
		if err != nil {
			out.fails.addf("explicit Checkpoint: %v", err)
		}
	}
	_, err = re.Close()
	followerOpen = false
	if ferr := closeFollower(r.follower, r.dialDone); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	w.o.ref = nil
	return out, nil
}

// collect reads the recorders and the directory of a traced round, and
// times a late-joining follower's catch-up, before the primary is killed.
func (w *stream) collect(e *env, r *rig, bt []batchTimes, stats core.Stats, out *roundOut) error {
	l := out.layer
	ops := float64(w.nOps) // the recorders saw stream-paced's preload too
	coreCounts(l, stats, parallelShards(r.primary.Store()), ops)

	ing := r.ingestRec.Snapshot()
	l["ingest.push_wait_s"] = e.tr.total("facade.PushBatch")
	l["ingest.flush_wait_s"] = e.tr.total("facade.Flush")
	l["ingest.flushes"] = float64(ing.Flushes)
	l["ingest.mean_flush_ops"] = ratio(ops, float64(ing.Flushes))
	l["ingest.dropped"] = float64(ing.Dropped)
	l["parallel.apply_s"] = float64(ing.ApplyLatencyNs.Sum) / 1e9

	ws := r.walRec.Snapshot()
	l["wal.bytes_per_op"] = ratio(float64(ws.AppendedBytes), float64(ws.AppendedOps))
	l["wal.fsyncs"] = float64(ws.Fsyncs)
	l["wal.ops_per_fsync"] = ratio(float64(ws.AppendedOps), float64(ws.Fsyncs))
	l["wal.fsync_mean_us"] = ws.FsyncLatencyNs.Mean() / 1e3
	l["wal.segments_created"] = float64(ws.SegmentsCreated)
	l["wal.segments_pruned"] = float64(ws.SegmentsPruned)

	ship, apply := r.shipRec.Snapshot(), r.applyRec.Snapshot()
	l["replication.bytes_per_op"] = ratio(float64(ship.BytesShipped), float64(ship.OpsShipped))
	l["replication.frames"] = float64(ship.FramesSent)
	l["replication.ops_per_frame"] = ratio(float64(ship.OpsShipped), float64(ship.FramesSent))
	l["replication.duplicates_dropped"] = float64(apply.DuplicateRecords)
	// Lag in ops, sampled at each batch's ack: how many of the ops pushed
	// so far the follower had not yet shown. A batch shown only after
	// the ack was still outstanding at it.
	size := int(out.updates) / len(bt)
	var lagSum, lagMax float64
	for i := range bt {
		lag := 0.0
		for j := i; j >= 0 && bt[j].visible.After(bt[i].acked); j-- {
			lag += float64(size)
		}
		lagSum += lag
		lagMax = max(lagMax, lag)
	}
	l["replication.lag_mean_ops"] = lagSum / float64(len(bt))
	l["replication.lag_max_ops"] = lagMax

	var disk int64
	err := filepath.WalkDir(filepath.Join(e.dir, "primary"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("measure directory: %w", err)
	}
	l["facade.disk_bytes_per_edge"] = ratio(float64(disk), float64(r.primary.Store().NumEdges()))

	if w.prefixBatches() > 0 {
		w.prefixS = bt[w.prefixBatches()-1].visible.Sub(bt[0].from).Seconds()
	}

	// A follower that joins now bootstraps from the last checkpoint and
	// replays the tail.
	sp := e.tr.begin("replication.catchup", -1)
	start := time.Now()
	late, done, err := openFollower(filepath.Join(e.dir, "late-follower"), r.addr, nil, nil)
	if err != nil {
		return fmt.Errorf("late follower: %w", err)
	}
	werr := late.WaitForLSN(uint64(ops), 30*time.Second)
	el := time.Since(start).Seconds()
	e.tr.end(sp)
	if werr != nil {
		out.fails.addf("late follower: WaitForLSN(%d): %v", uint64(ops), werr)
	}
	w.o.checkState(late.Store(), "late follower", &out.fails)
	l["replication.catchup_eps"] = ratio(ops, el)
	if err := closeFollower(late, done); err != nil {
		return fmt.Errorf("late follower: %w", err)
	}
	return nil
}

// prefixBatches is the ladder prefix in batches of this workload; only
// stream-durable runs the ladder.
func (w *stream) prefixBatches() int {
	if w.paced {
		return 0
	}
	return min(w.cfg.size.ladderOps, w.nOps) / updateBatch
}

func (w *stream) extras(e *env, layer map[string]float64) error {
	if w.paced {
		return nil
	}
	ops, _, err := streamOps(e.cfg, false)
	if err != nil {
		return err
	}
	if err := walAlone(e, ops, layer); err != nil {
		return err
	}
	return w.ladder(e, ops[:w.prefixBatches()*updateBatch], w.prefixS, layer)
}
