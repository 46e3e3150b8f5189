//go:build !race

// Allocation-regression pins for the hot paths ISSUE 5 made
// allocation-free. testing.AllocsPerRun counts are exact and
// machine-independent, so these run as ordinary tests rather than
// benchmarks — a change that reintroduces a per-op allocation fails
// `go test` outright instead of waiting for a benchmark diff. The race
// detector changes allocation behaviour, hence the build tag.

package core

import "testing"

// allocGraph returns a prefilled single instance plus the edges in it.
func allocGraph(t *testing.T) (*GraphTinker, []Edge) {
	t.Helper()
	edges := benchEdges(4096, 8192, 99)
	g := MustNew(DefaultConfig())
	g.InsertBatch(edges)
	return g, edges
}

// allocParallel returns a prefilled 4-shard store plus the edges in it.
// Callers must Close it.
func allocParallel(t *testing.T) (*Parallel, []Edge) {
	t.Helper()
	edges := benchEdges(4096, 8192, 99)
	p, err := NewParallel(DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	p.InsertBatch(edges)
	return p, edges
}

func pinAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, fn); got > want {
		t.Errorf("%s: %.2f allocs/op, want <= %.0f", name, got, want)
	}
}

func TestReadPathAllocFree(t *testing.T) {
	g, edges := allocGraph(t)
	probe := edges[:64]
	pinAllocs(t, "GraphTinker.FindEdge", 0, func() {
		for _, e := range probe {
			g.FindEdge(e.Src, e.Dst)
		}
	})
	pinAllocs(t, "GraphTinker.OutDegree", 0, func() {
		for _, e := range probe {
			g.OutDegree(e.Src)
		}
	})
	pinAllocs(t, "GraphTinker.ForEachOutEdge", 0, func() {
		for _, e := range probe {
			g.ForEachOutEdge(e.Src, func(dst uint64, w float32) bool { return true })
		}
	})
	// The sharded read path, in both seqlock modes.
	p, _ := allocParallel(t)
	for _, mode := range []string{"SINGLE", "DUAL"} {
		if mode == "DUAL" {
			promoteAll(p)
		}
		if want, got := map[string]int{"SINGLE": 4, "DUAL": 8}[mode], p.Stats().Replicas; got != want {
			t.Fatalf("%s: %d replicas over 4 shards, want %d", mode, got, want)
		}
		pinAllocs(t, mode+" Parallel.FindEdge", 0, func() {
			for _, e := range probe {
				p.FindEdge(e.Src, e.Dst)
			}
		})
		pinAllocs(t, mode+" Parallel.OutDegree", 0, func() {
			for _, e := range probe {
				p.OutDegree(e.Src)
			}
		})
		pinAllocs(t, mode+" Parallel.ForEachOutEdge", 0, func() {
			for _, e := range probe {
				p.ForEachOutEdge(e.Src, func(dst uint64, w float32) bool { return true })
			}
		})
	}
}

// TestEdgeWalkAllocFree pins the edge stream at zero allocations on a
// default graph holding both slice and cuckoo vertices: the unfiltered
// walk (ForEachEdge), the filtered one full processing uses
// (ForEachActiveEdge), and the per-shard walk on a Parallel.
func TestEdgeWalkAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	g := MustNew(cfg)
	p, err := NewParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	edges := benchEdges(4096, 8192, 99)
	for i := 0; i <= cfg.CuckooPromoteDegree; i++ {
		edges = append(edges, Edge{Src: 1 << 20, Dst: uint64(i), Weight: 1})
	}
	g.InsertBatch(edges)
	p.InsertBatch(edges)
	if st := g.Stats(); st.Promotions == 0 || g.NumEdges() <= uint64(cfg.CuckooPromoteDegree)+1 {
		t.Fatalf("want slice and cuckoo vertices: %d promotions over %d edges", st.Promotions, g.NumEdges())
	}
	var seen uint64
	visit := func(src, dst uint64, w float32) bool { seen++; return true }
	even := func(src uint64) bool { return src%2 == 0 }
	pinAllocs(t, "GraphTinker.ForEachEdge", 0, func() { g.ForEachEdge(visit) })
	pinAllocs(t, "GraphTinker.ForEachActiveEdge", 0, func() { g.ForEachActiveEdge(even, visit) })
	pinAllocs(t, "Parallel.ForEachActiveShardEdge", 0, func() {
		for s := 0; s < p.NumShards(); s++ {
			p.ForEachActiveShardEdge(s, even, visit)
		}
	})
	if seen == 0 {
		t.Fatalf("walks visited nothing")
	}
}

// TestAdaptiveFlapAllocFree pins a full promote/demote cycle at the default
// thresholds at zero allocations: the slice keeps its buffer across the
// promotion, the table keeps its slots across the demotion, and the
// demotion's sort of a table's worth of entries allocates nothing.
// Delete-and-compact keeps the CAL mirror's footprint steady across cycles.
func TestAdaptiveFlapAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeleteMode = DeleteAndCompact
	g := MustNew(cfg)
	const src = 3
	lo, hi := cfg.CuckooDemoteDegree, cfg.CuckooPromoteDegree+1
	for i := 0; i < lo; i++ {
		g.InsertEdge(src, uint64(i*7919), 1)
	}
	cycle := func() {
		for i := lo; i < hi; i++ {
			g.InsertEdge(src, uint64(i*7919), 1)
		}
		for i := hi - 1; i >= lo; i-- {
			g.DeleteEdge(src, uint64(i*7919))
		}
	}
	pinAllocs(t, "promote/demote cycle", 0, cycle)
	if st := g.Stats(); st.Promotions != st.Demotions || st.Promotions < 100 {
		t.Fatalf("cycles migrated %d up and %d down, want equal and >= 100", st.Promotions, st.Demotions)
	}
	if v := g.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestParallelInsertBatchSteadyAllocFree pins the sharded batch-update
// path at zero steady-state allocations: after the first batch sizes the
// scratch buffers and starts the workers, re-applying a batch must not
// allocate (partition scratch, worker fan-out and results are all reused).
//
// Both seqlock modes are pinned. A DUAL shard goes back to SINGLE once its
// writer has applied as many ops as it holds edges with no reader entering,
// so the DUAL run reads every shard between batches — which is also what
// keeps a shard DUAL in production.
func TestParallelInsertBatchSteadyAllocFree(t *testing.T) {
	p, edges := allocParallel(t)
	defer p.Close()
	p.InsertBatch(edges) // warm the scratch high-water mark
	pinAllocs(t, "SINGLE Parallel.InsertBatch steady", 0, func() {
		p.InsertBatch(edges)
	})
	if st := p.Stats(); st.Replicas != 4 || st.ShadowBuilds != 0 {
		t.Fatalf("unobserved batches left SINGLE mode: %+v", st)
	}

	promoteAll(p)
	var probe [4]uint64
	for s := range probe {
		probe[s] = sourceOn(p, s)
	}
	readAndBatch := func() {
		for _, src := range probe {
			p.OutDegree(src)
		}
		p.InsertBatch(edges)
	}
	readAndBatch() // warm: the clones have now applied the batch too
	pinAllocs(t, "DUAL Parallel.InsertBatch steady", 0, readAndBatch)
	if st := p.Stats(); st.Replicas != 8 || st.ShadowDrops != 0 {
		t.Fatalf("batches beside a reader left DUAL mode: %+v", st)
	}
}

// TestBatchApplySteadyAllocFree pins a lone instance's batch calls at zero
// steady-state allocations on the parallel path: after the first batch
// builds the hand-off and sizes its scratch, handing chunks to the helper
// pool allocates nothing.
func TestBatchApplySteadyAllocFree(t *testing.T) {
	g, edges := allocGraph(t)
	ops := make([]EdgeOp, 0, 2*len(edges))
	for _, e := range edges {
		ops = append(ops, DeleteOp(e.Src, e.Dst), InsertOp(e.Src, e.Dst, 2))
	}
	g.ApplyOps(ops) // warm: the hand-off and its scratch
	pinAllocs(t, "GraphTinker.InsertBatch steady", 0, func() { g.InsertBatch(edges) })
	pinAllocs(t, "GraphTinker.DeleteBatch steady", 0, func() {
		g.DeleteBatch(edges)
		g.InsertBatch(edges)
	})
	pinAllocs(t, "GraphTinker.ApplyOps steady", 0, func() { g.ApplyOps(ops) })
}
