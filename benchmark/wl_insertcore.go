package main

import (
	"fmt"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/stinger"
)

// insertCore is the paper's update experiment (Figs. 8, 9, 14): one RMAT
// stream inserted into a single core.GraphTinker in loadBatches reporting
// batches, then its first half deleted (delete-and-compact) in
// deleteBatches, from one goroutine. Each reporting batch is issued as
// updateBatch-edge InsertBatch/DeleteBatch calls, which are the timed,
// acknowledged unit. ingest, wal and replication are not involved.
type insertCore struct {
	cfg   runConfig
	crc   uint32
	o     *oracle
	gtEps float64 // the last round's update rate at the reference memory speed, for the STINGER ratio
}

const saltInsertCore = 0x1c

func newInsertCore(cfg runConfig) (workload, error) {
	tuples, _, err := genTuples("RMAT_1M_10M", cfg.size.insertDivisor, cfg.seed, saltInsertCore)
	if err != nil {
		return nil, err
	}
	half := len(tuples) / 2
	ops := append(insertOps(tuples), deleteOps(tuples[:half])...)
	o, err := buildOracle(ops, tuples[half:], cfg.size.queryBundles, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	return &insertCore{cfg: cfg, crc: checksumOps(ops), o: o}, nil
}

func (w *insertCore) inputChecksum() uint32 { return w.crc }

// updateSink is the batch write surface GraphTinker and STINGER share.
type updateSink[E any] interface {
	InsertBatch([]E) int
	DeleteBatch([]E) int
}

// groupTimes is the wall time of each reporting batch.
type groupTimes struct{ insertS, deleteS []float64 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// firstLastX is the first reporting batch's rate over the last one's:
// the paper's degradation curve in one number. Batches are equal-sized.
func firstLastX(groupS []float64) float64 {
	return ratio(groupS[len(groupS)-1], groupS[0])
}

// driveInsertDelete runs the update stage against sink. between runs
// after the inserts and before the deletes, untimed.
func driveInsertDelete[E any](e *env, layer string, sink updateSink[E], edges []E, ackMs *[]float64, between func()) groupTimes {
	tr, sz := e.tr, e.cfg.size
	var gt groupTimes
	seq := int64(0)
	run := func(name string, groups int, part []E, call func([]E) int) []float64 {
		times := make([]float64, groups)
		for b := 0; b < groups; b++ {
			lo, hi := b*len(part)/groups, (b+1)*len(part)/groups
			chunks(hi-lo, updateBatch, func(clo, chi int) {
				t0 := time.Now()
				sp := tr.begin(name, seq)
				call(part[lo+clo : lo+chi])
				tr.end(sp)
				d := time.Since(t0)
				times[b] += d.Seconds()
				if ackMs != nil {
					*ackMs = append(*ackMs, float64(d.Nanoseconds())/1e6)
				}
				seq++
				e.clk.tick()
			})
		}
		return times
	}
	gt.insertS = run(layer+".InsertBatch", sz.loadBatches, edges, sink.InsertBatch)
	if between != nil {
		between()
	}
	gt.deleteS = run(layer+".DeleteBatch", sz.deleteBatches, edges[:len(edges)/2], sink.DeleteBatch)
	return gt
}

func (w *insertCore) round(e *env) (*roundOut, error) {
	out := newRoundOut()
	var sw stopwatch
	sw.start()
	tuples, _, err := genTuples("RMAT_1M_10M", e.cfg.size.insertDivisor, e.cfg.seed, saltInsertCore)
	if err != nil {
		return nil, err
	}
	sw.stop()
	genS := sw.total.Seconds()
	base := heapInUse()
	sw.start()
	g, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sw.stop()
	out.setupS = sw.total.Seconds()

	n := len(tuples)
	gt := driveInsertDelete(e, "core", g, tuples, &out.ackMs, func() {
		out.heapBytes = heapInUse() - base
		out.heapEdges = float64(g.NumEdges())
	})
	out.updateSlow = e.clk.slowdown()
	out.visibleMs = out.ackMs // applied is visible: same store, same goroutine
	out.updates = float64(n + n/2)
	out.updateS = sum(gt.insertS) + sum(gt.deleteS)
	out.attempted += n + n/2
	w.gtEps = ratio(out.updates, out.updateS/out.updateSlow)
	stats := g.Stats()

	w.o.checkState(g, "store", &out.fails)
	readStage(e, g, w.o, out)
	if err := analyticsStage(e, g, w.o, out); err != nil {
		return nil, err
	}
	if err := graphTinkerRecovery(e, g, w.o, out); err != nil {
		return nil, err
	}
	w.o.ref = nil

	if e.tr != nil {
		out.layer["gen.generate_s"] = genS
		out.layer["core.insert_s"] = e.tr.total("core.InsertBatch")
		out.layer["core.delete_s"] = e.tr.total("core.DeleteBatch")
		out.layer["core.insert_first_last_x"] = firstLastX(gt.insertS)
		coreCounts(out.layer, stats, []*core.GraphTinker{g}, out.updates)
	}
	return out, nil
}

// extras runs the identical stream through STINGER, the paper's baseline.
func (w *insertCore) extras(e *env, layer map[string]float64) error {
	tuples, _, err := genTuples("RMAT_1M_10M", e.cfg.size.insertDivisor, e.cfg.seed, saltInsertCore)
	if err != nil {
		return err
	}
	edges := make([]stinger.Edge, len(tuples))
	for i, t := range tuples {
		edges[i] = stinger.Edge(t)
	}
	st, err := stinger.New(stinger.DefaultConfig())
	if err != nil {
		return err
	}
	gt := driveInsertDelete(e, "stinger", st, edges, nil, nil)
	slow := e.clk.slowdown()
	if st.NumEdges() != w.o.liveEdges {
		return fmt.Errorf("stinger ended with %d live edges, oracle has %d", st.NumEdges(), w.o.liveEdges)
	}
	ins, del := float64(len(edges)), float64(len(edges)/2)
	layer["stinger.insert_eps"] = ratio(ins, sum(gt.insertS))
	layer["stinger.delete_eps"] = ratio(del, sum(gt.deleteS))
	layer["stinger.first_last_x"] = firstLastX(gt.insertS)
	// The two sides ran at different times: compare them at the reference
	// memory speed.
	layer["stinger.gt_over_stinger_x"] = ratio(w.gtEps, ratio(ins+del, (sum(gt.insertS)+sum(gt.deleteS))/slow))
	return nil
}
