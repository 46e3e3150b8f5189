package bench

import (
	"runtime"

	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/engine"
)

// ExtScaling measures the split engine: the Figs. 11-13 workload run
// over a sharded store with one worker per shard, sweeping the shard
// count. Extends the paper's Fig. 10 (which parallelizes only updates) to
// the analytics side.
func ExtScaling(opts Options) (Table, error) {
	d, err := datasets.ByName("Kron_g500-logn21")
	if err != nil {
		return Table{}, err
	}
	batches, err := opts.materialize(d)
	if err != nil {
		return Table{}, err
	}
	root := pickRoot(batches)
	prog, err := program("cc", root)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "ext-scaling",
		Title:   "Parallel engine scaling: CC after every batch, Kron stand-in (Medges/s of graph processed)",
		Columns: []string{"shards", "update Medges/s", "analytics Medges/s", "speedup vs 1"},
	}
	var base float64
	for _, shards := range opts.Cores {
		store, err := core.NewParallel(gtConfig(), shards)
		if err != nil {
			return t, err
		}
		// New deals a ReprBlocks store's shards to GOMAXPROCS workers.
		prev := runtime.GOMAXPROCS(shards)
		eng := engine.MustNew(store, prog, engine.Options{Mode: engine.Hybrid, Threshold: opts.Threshold})
		runtime.GOMAXPROCS(prev)
		var work uint64
		var updates []BatchTiming
		var analyticsSec float64
		for i, b := range batches {
			b := b
			sec := timeIt(func() { store.InsertBatch(b) })
			updates = append(updates, BatchTiming{Batch: i, Edges: len(b), Seconds: sec})
			res := eng.RunAfterBatch(b)
			analyticsSec += res.Duration.Seconds()
			work += store.NumEdges()
		}
		analytics := meps(work, analyticsSec)
		if shards == opts.Cores[0] {
			base = analytics
		}
		speedup := 0.0
		if base > 0 {
			speedup = analytics / base
		}
		t.AddRow(itoa(shards), f2(totalMEPS(updates)), f2(analytics), f2(speedup))
	}
	t.AddNote("one worker per shard in both phases; merge cost bounds small-frontier speedup")
	return t, nil
}
