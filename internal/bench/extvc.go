package bench

import (
	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/engine"
)

// ExtVC compares the edge-centric engine (the paper's model) against the
// vertex-centric pull engine (the paper's proposed future work) on the
// Figs. 11-13 workload: per dataset, BFS runs after every insertion batch
// under the EC-hybrid, EC-full and VC engines. The VC engine pulls over
// in-edges from a mirrored store, so its update cost is doubled — the
// table reports both analytics throughput and the mirror's load cost.
func ExtVC(opts Options) (Table, error) {
	t := Table{
		ID:      "ext-vc",
		Title:   "Edge-centric vs vertex-centric (pull) engines, BFS after every batch",
		Columns: []string{"dataset", "EC-hybrid", "EC-full", "VC-pull", "VC load overhead"},
	}
	for _, d := range datasets.Table1() {
		batches, err := opts.materialize(d)
		if err != nil {
			return t, err
		}
		root := pickRoot(batches)
		prog, err := program("bfs", root)
		if err != nil {
			return t, err
		}

		runEC := func(mode engine.Mode) workloadResult {
			g := core.MustNew(gtConfig())
			return analyticsWorkload(opts, "ext-vc/ec-"+mode.String(), g, gtStore{g}, batches, prog, mode)
		}
		hyb := runEC(engine.Hybrid)
		full := runEC(engine.FullProcessing)

		// VC: mirrored store, analytics after every batch.
		m := core.MustNewMirrored(gtConfig())
		vc := engine.MustNewVC(m, prog, engine.Options{Mode: engine.IncrementalProcessing})
		var vcRes workloadResult
		vcRes.Converged = true
		loadCost := timeIt(func() {
			for _, b := range batches {
				m.InsertBatch(b)
				res := vc.RunAfterBatch(b)
				vcRes.Merge(res)
				vcRes.Work += m.NumEdges()
			}
		})
		singleLoad := timeIt(func() {
			g := core.MustNew(gtConfig())
			for _, b := range batches {
				g.InsertBatch(b)
			}
		})
		overhead := 0.0
		if singleLoad > 0 {
			overhead = (loadCost - vcRes.Duration.Seconds()) / singleLoad
		}
		t.AddRow(d.Name, f2(hyb.WorkMEPS()), f2(full.WorkMEPS()), f2(vcRes.WorkMEPS()), f2(overhead)+"x")
	}
	t.AddNote("VC pulls every in-edge each iteration: strongest on dense frontiers, pays a mirrored update cost")
	return t, nil
}
