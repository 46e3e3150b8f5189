package main

import (
	"time"

	"graphtinker/internal/algorithms"
	"graphtinker/internal/core"
	"graphtinker/internal/engine"
)

// analyticsHybrid is the paper's processing experiment (Figs. 11-13): an
// RMAT stream loaded into one GraphTinker in loadBatches batches, and
// after each batch RunAfterBatch on three attached hybrid-mode engines
// (BFS and SSSP from the hub, CC). The engines and the CAL scan path do
// most of the work; the update path only feeds them.
type analyticsHybrid struct {
	cfg   runConfig
	crc   uint32
	o     *oracle
	edges []core.Edge // the final live edge set, for the Validate functions
}

const saltAnalytics = 0xa7

// analyticsTuples generates the load stream. A duplicate tuple must not
// change its edge's weight: an increase is a change monotone incremental
// SSSP cannot repair (the engine recomputes from scratch for those, as it
// does for deletions), and this workload is insert-only by design. So
// every weight is made a function of the edge's endpoints.
func analyticsTuples(cfg runConfig) ([]core.Edge, error) {
	tuples, p, err := genTuples("RMAT_500K_8M", cfg.size.analyticsDiv, cfg.seed, saltAnalytics)
	if err != nil {
		return nil, err
	}
	for i := range tuples {
		t := &tuples[i]
		h := (t.Src*0x9e3779b97f4a7c15 ^ t.Dst) * 0xbf58476d1ce4e5b9
		t.Weight = float32(1 + (h>>40)%uint64(p.MaxWeight))
	}
	return tuples, nil
}

func newAnalyticsHybrid(cfg runConfig) (workload, error) {
	tuples, err := analyticsTuples(cfg)
	if err != nil {
		return nil, err
	}
	ops := insertOps(tuples)
	o, err := buildOracle(ops, tuples, cfg.size.queryBundles, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	return &analyticsHybrid{cfg: cfg, crc: checksumOps(ops), o: o, edges: o.liveEdgeList()}, nil
}

func (w *analyticsHybrid) inputChecksum() uint32 { return w.crc }

func (w *analyticsHybrid) round(e *env) (*roundOut, error) {
	out := newRoundOut()
	var sw stopwatch
	sw.start()
	tuples, err := analyticsTuples(e.cfg)
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
	progs := []engine.Program{algorithms.BFS(w.o.hub), algorithms.SSSP(w.o.hub), algorithms.CC()}
	engines := make([]*engine.Engine, len(progs))
	for i, p := range progs {
		if engines[i], err = engine.New(g, p, engine.Options{Mode: engine.Hybrid}); err != nil {
			return nil, err
		}
	}
	sw.stop()
	out.setupS = sw.total.Seconds()

	n, groups := len(tuples), e.cfg.size.loadBatches
	insertS := make([]float64, groups)
	seq := int64(0)
	for b := 0; b < groups; b++ {
		batch := tuples[b*n/groups : (b+1)*n/groups]
		chunks(len(batch), updateBatch, func(lo, hi int) {
			t0 := time.Now()
			sp := e.tr.begin("core.InsertBatch", seq)
			g.InsertBatch(batch[lo:hi])
			e.tr.end(sp)
			d := time.Since(t0)
			insertS[b] += d.Seconds()
			out.ackMs = append(out.ackMs, ms(d))
			seq++
			e.clk.tick()
		})
		live := float64(g.NumEdges())
		for i, eng := range engines {
			name := "engine.run_s." + progs[i].Name
			sp := e.tr.begin(name, int64(b))
			t0 := time.Now()
			res := eng.RunAfterBatch(batch)
			el := time.Since(t0).Seconds()
			e.tr.end(sp)
			e.clk.tick()
			out.analyticsEdges += live
			out.analyticsS += el
			out.attempted++
			if !res.Converged {
				out.fails.addf("batch %d: %s did not converge", b, progs[i].Name)
			}
			if e.tr != nil {
				out.layer[name] += el
				addEngineCounts(out.layer, res, live)
			}
		}
	}
	// Load calls and engine runs alternate, so one slowdown covers both.
	out.updateSlow = e.clk.slowdown()
	out.analyticsSlow = out.updateSlow
	out.visibleMs = out.ackMs // applied is visible: same store, same goroutine
	out.updates = float64(n)
	out.updateS = sum(insertS)
	out.attempted += n
	out.heapBytes = heapInUse() - base
	out.heapEdges = float64(g.NumEdges())
	stats := g.Stats()

	w.o.checkState(g, "store", &out.fails)
	for _, v := range algorithms.ValidateBFS(engines[0].Values(), w.edges, w.o.hub) {
		out.fails.addf("bfs: %s", v)
	}
	w.o.checkBFS(engines[0].Values(), "bfs", &out.fails)
	for _, v := range algorithms.ValidateSSSP(engines[1].Values(), w.edges, w.o.hub) {
		out.fails.addf("sssp: %s", v)
	}
	for _, v := range algorithms.ValidateCC(engines[2].Values(), w.edges) {
		out.fails.addf("cc: %s", v)
	}

	readStage(e, g, w.o, out)
	if err := graphTinkerRecovery(e, g, w.o, out); err != nil {
		return nil, err
	}
	w.o.ref = nil

	if e.tr != nil {
		out.layer["gen.generate_s"] = genS
		out.layer["core.insert_s"] = e.tr.total("core.InsertBatch")
		out.layer["core.insert_first_last_x"] = firstLastX(insertS)
		coreCounts(out.layer, stats, []*core.GraphTinker{g}, out.updates)
	}
	return out, nil
}

func (w *analyticsHybrid) extras(*env, map[string]float64) error { return nil }
