package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"graphtinker/internal/core"
)

// readChurn uses core.Parallel two ways on one store. After a preload,
// phase A is the writer alone, closed loop: pairs of an updateBatch-edge
// InsertBatch of new edges and a DeleteBatch of the oldest window, so the
// graph's size holds steady while vertices cross the adaptive
// promote/demote thresholds. Phase B paces the same writer at a fixed
// batch rate beside one closed-loop reader. ingest and wal do nothing.
type readChurn struct {
	cfg   runConfig
	crc   uint32
	o     *oracle
	pairs int
}

const (
	saltReadChurn = 0xc4
	preloadChunk  = 1 << 14
)

func churnTuples(cfg runConfig) ([]core.Edge, error) {
	tuples, _, err := genTuples("RMAT_1M_10M", cfg.size.churnDivisor, cfg.seed, saltReadChurn)
	if err != nil {
		return nil, err
	}
	sz := cfg.size
	pairs := sz.churnPairsA + sz.churnPairsB
	if need := sz.churnPreload + pairs*updateBatch; len(tuples) < need || pairs*updateBatch >= sz.churnPreload {
		return nil, fmt.Errorf("read-churn sizes do not fit: %d tuples, preload %d, %d pairs", len(tuples), sz.churnPreload, pairs)
	}
	return tuples, nil
}

// churnWindows returns pair k's batches: the new edges it inserts and the
// oldest window it deletes.
func churnWindows(tuples []core.Edge, preload, k int) (ins, del []core.Edge) {
	return tuples[preload+k*updateBatch : preload+(k+1)*updateBatch], tuples[k*updateBatch : (k+1)*updateBatch]
}

func newReadChurn(cfg runConfig) (workload, error) {
	tuples, err := churnTuples(cfg)
	if err != nil {
		return nil, err
	}
	sz := cfg.size
	pairs := sz.churnPairsA + sz.churnPairsB
	ops := insertOps(tuples[:sz.churnPreload])
	// Lookups must keep their answer while the writer runs: leave out
	// every pair a churn batch inserts or deletes.
	type pair struct{ src, dst uint64 }
	touched := make(map[pair]struct{}, 2*pairs*updateBatch)
	for k := 0; k < pairs; k++ {
		ins, del := churnWindows(tuples, sz.churnPreload, k)
		ops = append(append(ops, insertOps(ins)...), deleteOps(del)...)
		for _, e := range ins {
			touched[pair{e.Src, e.Dst}] = struct{}{}
		}
		for _, e := range del {
			touched[pair{e.Src, e.Dst}] = struct{}{}
		}
	}
	o, err := buildOracle(ops, tuples[pairs*updateBatch:sz.churnPreload], sz.queryBundles, cfg.seed,
		func(src, dst uint64) bool { _, ok := touched[pair{src, dst}]; return ok })
	if err != nil {
		return nil, err
	}
	return &readChurn{cfg: cfg, crc: checksumOps(ops), o: o, pairs: pairs}, nil
}

func (w *readChurn) inputChecksum() uint32 { return w.crc }

func (w *readChurn) round(e *env) (*roundOut, error) {
	out := newRoundOut()
	sz := e.cfg.size
	var sw stopwatch
	sw.start()
	tuples, err := churnTuples(e.cfg)
	if err != nil {
		return nil, err
	}
	sw.stop()
	genS := sw.total.Seconds()
	base := heapInUse()
	sw.start()
	p, err := core.NewParallel(core.DefaultConfig(), 2)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	sw.stop()
	out.setupS = sw.total.Seconds()
	start := time.Now()
	chunks(sz.churnPreload, preloadChunk, func(lo, hi int) {
		p.InsertBatch(tuples[lo:hi])
		e.clk.tick()
	})
	out.preloadS, out.preloadSlow = time.Since(start).Seconds(), e.clk.slowdown()

	// call issues one write batch.
	var callMs []float64
	seq := int64(0)
	call := func(name string, fn func([]core.Edge) int, edges []core.Edge) {
		t0 := time.Now()
		sp := e.tr.begin(name, seq)
		fn(edges)
		e.tr.end(sp)
		callMs = append(callMs, ms(time.Since(t0)))
		seq++
	}

	// Phase A: writer alone.
	sp := e.tr.scope("stage.update")
	for k := 0; k < sz.churnPairsA; k++ {
		ins, del := churnWindows(tuples, sz.churnPreload, k)
		call("parallel.InsertBatch", p.InsertBatch, ins)
		e.clk.tick()
		call("parallel.DeleteBatch", p.DeleteBatch, del)
		e.clk.tick()
	}
	e.tr.end(sp)
	out.updateSlow = e.clk.slowdown()
	out.updates = float64(sz.churnPairsA * 2 * updateBatch)
	aCalls := len(callMs)
	out.updateS = sum(callMs) / 1e3
	out.ackMs = callMs[:aCalls:aCalls]
	out.visibleMs = out.ackMs // a returned batch is published to readers
	// Read here, before any lookup: Stats counts the probes of FindEdge
	// too, and how many the closed-loop reader issues differs run to run.
	stats := p.Stats()

	// Phase B: the writer on a schedule, one reader beside it, from a
	// collected heap (see readStage). The memory clock is the reader's now.
	runtime.GC()
	rd := &reader{st: p, o: w.o, traced: e.tr != nil}
	stop, readerDone := make(chan struct{}), make(chan struct{})
	sp = e.tr.scope("stage.read")
	start = time.Now()
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rd.bundleAndTick(i, e.clk)
		}
	}()
	period := time.Duration(float64(time.Second) / sz.churnBatchHz)
	var lateMs []float64
	for j := 0; j < 2*sz.churnPairsB; j++ {
		due := start.Add(time.Duration(j) * period)
		ready := due // or now, if the previous batch returned after it
		if now := time.Now(); now.After(ready) {
			ready = now
		}
		time.Sleep(time.Until(due))
		lateMs = append(lateMs, ms(time.Since(ready)))
		ins, del := churnWindows(tuples, sz.churnPreload, sz.churnPairsA+j/2)
		if j%2 == 0 {
			call("parallel.InsertBatch", p.InsertBatch, ins)
		} else {
			call("parallel.DeleteBatch", p.DeleteBatch, del)
		}
	}
	close(stop)
	<-readerDone
	e.tr.end(sp)
	out.readSlow = e.clk.slowdown()
	rd.report(out)
	out.checkLate(lateMs, period)
	out.attempted += w.pairs * 2 * updateBatch

	w.o.checkState(p, "store", &out.fails)
	w.o.checkLookups(p, "store", &out.fails)
	if deg := p.OutDegree(w.o.scan); deg != w.o.scanDegree {
		out.fails.addf("vertex %d has degree %d, oracle %d", w.o.scan, deg, w.o.scanDegree)
	}
	if err := analyticsStage(e, p, w.o, out); err != nil {
		return nil, err
	}
	out.heapBytes = heapInUse() - base
	out.heapEdges = float64(p.NumEdges())
	err = snapshotRecovery(e, p.WriteSnapshot,
		func(f io.Reader) (store, func(), error) {
			r, err := core.ReadParallelSnapshot(f, nil)
			if err != nil {
				return nil, nil, err
			}
			return r, r.Close, nil
		}, w.o, out)
	if err != nil {
		return nil, err
	}
	w.o.ref = nil

	if e.tr != nil {
		l := out.layer
		l["gen.generate_s"] = genS
		l["parallel.apply_s"] = e.tr.total("parallel.InsertBatch") + e.tr.total("parallel.DeleteBatch")
		a := summarize(callMs[:aCalls])
		l["parallel.write_batch_p50_ms"], l["parallel.write_batch_p99_ms"] = a.P50, a.Tail
		l["parallel.write_batch_churn_p99_ms"] = summarize(callMs[aCalls:]).Tail
		coreCounts(l, stats, parallelShards(p), float64(sz.churnPreload)+out.updates)
	}
	return out, nil
}

func (w *readChurn) extras(*env, map[string]float64) error { return nil }
