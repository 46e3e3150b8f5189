package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"graphtinker"
	"graphtinker/internal/core"
	"graphtinker/internal/ingest"
	"graphtinker/internal/testutil"
	"graphtinker/internal/wal"
)

// The layer ladder replays one prefix of the stream-durable stream
// through the write path one layer at a time. Each rung adds exactly one
// layer to the rung below, so successive differences are that layer's
// share of the blocking time and the shares telescope to the last rung,
// which is the workload itself over that prefix.
//
//	ladder.core_s     one GraphTinker, op by op
//	ladder.apply_s    core.Parallel: partition by ShardOf, ApplyShard per shard
//	ladder.ingest_s   + ingest.Pipeline (coalescing, shard workers), no WAL
//	ladder.wal_s      + OpenDurableStream, fsync only at the closing barrier
//	ladder.fsync_s    + 2ms group commit, Flush after every 16th batch
//	ladder.replica_s  + OpenReplicatedStream and a follower; wait until visible

// pushAll feeds ops in updateBatch pieces, flushing after every
// flushEvery-th when periodic is set and always after the last.
func pushAll(ops []core.EdgeOp, periodic bool, push func([]core.EdgeOp) error, flush func() error) error {
	var err error
	k := 0
	chunks(len(ops), updateBatch, func(lo, hi int) {
		if err != nil {
			return
		}
		err = push(ops[lo:hi])
		k++
		if err == nil && ((periodic && k%flushEvery == 0) || hi == len(ops)) {
			err = flush()
		}
	})
	return err
}

func (w *stream) ladder(e *env, ops []core.EdgeOp, streamPrefixS float64, layer map[string]float64) error {
	if len(ops) == 0 {
		return nil
	}
	ref := testutil.NewRefGraph()
	for _, op := range ops {
		if op.Del {
			ref.Delete(op.Src, op.Dst)
		} else {
			ref.Insert(op.Src, op.Dst, op.Weight)
		}
	}
	want := ref.NumEdges()
	check := func(rung string, got uint64) error {
		if got != want {
			return fmt.Errorf("ladder %s: %d live edges, oracle has %d", rung, got, want)
		}
		return nil
	}
	cfg := core.DefaultConfig()
	timed := func(name string, fn func() error) (float64, error) {
		sp := e.tr.begin(name, -1)
		start := time.Now()
		err := fn()
		el := time.Since(start).Seconds()
		e.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		layer[name] = el
		return el, nil
	}

	// Rung 0: the data structure alone.
	g, err := core.New(cfg)
	if err != nil {
		return err
	}
	coreS, err := timed("ladder.core_s", func() error {
		for _, op := range ops {
			if op.Del {
				g.DeleteEdge(op.Src, op.Dst)
			} else {
				g.InsertEdge(op.Src, op.Dst, op.Weight)
			}
		}
		return nil
	})
	if err == nil {
		err = check("core", g.NumEdges())
	}
	if err != nil {
		return err
	}

	// Rung 1: both seqlock replicas of a two-shard Parallel, shards in parallel.
	p, err := core.NewParallel(cfg, 2)
	if err != nil {
		return err
	}
	parts := make([][]core.EdgeOp, p.NumShards())
	applyS, err := timed("ladder.apply_s", func() error {
		chunks(len(ops), updateBatch, func(lo, hi int) {
			for i := range parts {
				parts[i] = parts[i][:0]
			}
			for _, op := range ops[lo:hi] {
				s := p.ShardOf(op.Src)
				parts[s] = append(parts[s], op)
			}
			var wg sync.WaitGroup
			for s := range parts {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					p.ApplyShard(s, parts[s])
				}(s)
			}
			wg.Wait()
		})
		return nil
	})
	if err == nil {
		err = check("apply", p.NumEdges())
	}
	p.Close()
	if err != nil {
		return err
	}

	// Rung 2: the ingest pipeline over a fresh Parallel, volatile.
	p, err = core.NewParallel(cfg, 2)
	if err != nil {
		return err
	}
	pipe, err := ingest.New(p, ingest.Options{})
	if err != nil {
		p.Close()
		return err
	}
	ingestS, err := timed("ladder.ingest_s", func() error {
		return pushAll(ops, false, pipe.PushBatch, pipe.FlushSync)
	})
	if _, cerr := pipe.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = check("ingest", p.NumEdges())
	}
	p.Close()
	if err != nil {
		return err
	}

	// Rungs 3 and 4: the durable stream, first with one closing fsync,
	// then with the workload's group commit and flush schedule.
	durable := func(name, sub string, sync time.Duration, periodic bool) (float64, error) {
		ds, err := graphtinker.OpenDurableStream(cfg, filepath.Join(e.dir, sub), graphtinker.DurableStreamOptions{
			Shards:     2,
			Durability: graphtinker.DurabilityOptions{SyncInterval: sync},
		})
		if err != nil {
			return 0, err
		}
		el, err := timed(name, func() error { return pushAll(ops, periodic, ds.PushBatch, ds.Flush) })
		if err == nil {
			err = check(sub, ds.Store().NumEdges())
		}
		if _, cerr := ds.Close(); err == nil {
			err = cerr
		}
		return el, err
	}
	if _, err = durable("ladder.wal_s", "ladder-wal", -1, false); err != nil {
		return err
	}
	fsyncS, err := durable("ladder.fsync_s", "ladder-fsync", 2*time.Millisecond, true)
	if err != nil {
		return err
	}

	// Rung 5: the workload's own rig and driver.
	r, err := openRig(filepath.Join(e.dir, "ladder-replica"), w.snapshotEvery(), false)
	if err != nil {
		return err
	}
	out := newRoundOut()
	bt := w.drive(e, r, ops, &ckptMirror{every: w.snapshotEvery()}, out)
	replicaS := bt[len(bt)-1].visible.Sub(bt[0].from).Seconds()
	layer["ladder.replica_s"] = replicaS
	err = check("replica", r.follower.Store().NumEdges())
	if out.fails.n > 0 && err == nil {
		err = fmt.Errorf("ladder replica: %s", out.fails.msgs[0])
	}
	if _, cerr := r.primary.Close(); err == nil {
		err = cerr
	}
	if ferr := closeFollower(r.follower, r.dialDone); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}

	layer["parallel.over_core_x"] = ratio(applyS, coreS)
	layer["ingest.over_parallel_x"] = ratio(ingestS, applyS)
	layer["wal.durable_over_volatile_x"] = ratio(fsyncS, ingestS)
	layer["replication.replicated_over_durable_x"] = ratio(replicaS, fsyncS)
	layer["ladder.over_stream_x"] = ratio(replicaS, streamPrefixS)
	return nil
}

// walAlone times the WAL with nothing around it: wal.Append of the
// stream's records and one closing Sync, then wal.ReplayInto of that log
// into a fresh two-shard store.
func walAlone(e *env, ops []core.EdgeOp, layer map[string]float64) error {
	dir := filepath.Join(e.dir, "wal-alone")
	log, err := wal.Open(dir, wal.Options{SyncInterval: -1})
	if err != nil {
		return err
	}
	sp := e.tr.begin("wal.Append", -1)
	start := time.Now()
	err = pushAll(ops, false, func(b []core.EdgeOp) error {
		_, err := log.Append(b)
		return err
	}, log.Sync)
	appendS := time.Since(start).Seconds()
	e.tr.end(sp)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal alone: %w", err)
	}
	layer["wal.append_only_eps"] = ratio(float64(len(ops)), appendS)

	p, err := core.NewParallel(core.DefaultConfig(), 2)
	if err != nil {
		return err
	}
	defer p.Close()
	sp = e.tr.begin("wal.ReplayInto", -1)
	start = time.Now()
	next, err := wal.ReplayInto(dir, 0, nil, p)
	replayS := time.Since(start).Seconds()
	e.tr.end(sp)
	if err != nil {
		return fmt.Errorf("wal alone: replay: %w", err)
	}
	if next != uint64(len(ops)) {
		return fmt.Errorf("wal alone: replay ended at LSN %d of %d", next, len(ops))
	}
	layer["wal.replay_eps"] = ratio(float64(len(ops)), replayS)
	return nil
}
