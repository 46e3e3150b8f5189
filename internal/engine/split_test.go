package engine

import (
	"runtime"
	"testing"

	"graphtinker/internal/core"
)

// TestOneWorkerStores pins where New does not split: over STINGER, over
// the paper's structure (ReprBlocks, with and without the CAL, and as a
// one-shard Parallel), for an ApplyVertex-only program (over a sharded
// store too), and at GOMAXPROCS 1. Each engine has one worker and records
// no merge phase.
func TestOneWorkerStores(t *testing.T) {
	edges := randomTestEdges(20000, 2048, 5)
	blocks := core.DefaultConfig()
	blocks.Repr = core.ReprBlocks
	blocksCAL := blocks
	blocksCAL.EnableCAL = true
	applyVertex := minProgram()
	apply := applyVertex.Apply
	applyVertex.Apply = nil
	applyVertex.ApplyVertex = func(_ uint64, old, reduced float64) (float64, bool) { return apply(old, reduced) }

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := map[string]func() *Engine{
		"stinger": func() *Engine { return MustNew(newStingerStore(edges), minProgram(), Options{Mode: Hybrid}) },
		"blocks": func() *Engine {
			g := core.MustNew(blocks)
			g.InsertBatch(edges)
			return MustNew(g, minProgram(), Options{Mode: Hybrid})
		},
		"blocks+cal": func() *Engine {
			g := core.MustNew(blocksCAL)
			g.InsertBatch(edges)
			return MustNew(g, minProgram(), Options{Mode: Hybrid})
		},
		"blocks-parallel/1": func() *Engine {
			p, err := core.NewParallel(blocks, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.InsertBatch(edges)
			return MustNew(p, minProgram(), Options{Mode: Hybrid})
		},
		"applyvertex": func() *Engine { return MustNew(newStore(t, edges), applyVertex, Options{Mode: Hybrid}) },
		"applyvertex/sharded": func() *Engine {
			return MustNew(shardedStore(t, 2, edges), applyVertex, Options{Mode: Hybrid})
		},
		"gomaxprocs=1": func() *Engine {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			return MustNew(newStore(t, edges), minProgram(), Options{Mode: Hybrid})
		},
	}
	for name, build := range cases {
		e := build()
		if len(e.workers) != 1 {
			t.Fatalf("%s: %d workers, want 1", name, len(e.workers))
		}
		res := e.RunFromScratch()
		if len(res.Iterations) < 3 {
			t.Fatalf("%s: only %d iterations", name, len(res.Iterations))
		}
		for _, it := range res.Iterations {
			if it.MergeDuration != 0 {
				t.Fatalf("%s iter %d: merge phase of %v on one worker", name, it.Index, it.MergeDuration)
			}
		}
	}
	if e := MustNew(newStore(t, edges), minProgram(), Options{}); len(e.workers) != 4 {
		t.Fatalf("default store at GOMAXPROCS 4: %d workers, want 4", len(e.workers))
	}
}

// TestSplitEngineKeepsNoHelperBuffers pins that helpers hold their buffers
// for one run only: after RunFromScratch every helper's slices are nil,
// and a run leaves the heap where it found it. Keeping them would add
// about 17 B a vertex per helper to every idle engine.
func TestSplitEngineKeepsNoHelperBuffers(t *testing.T) {
	const n = 1 << 15
	edges := randomTestEdges(8*n, n, 9)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := MustNew(newStore(t, edges), minProgram(), Options{Mode: FullProcessing})
	e.RunFromScratch() // grow the engine's own arrays and lists
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	res := e.RunFromScratch()
	after := heap()
	merged := false
	for _, it := range res.Iterations {
		merged = merged || it.MergeDuration > 0
	}
	if !merged {
		t.Fatalf("no iteration split")
	}
	for w, ws := range e.workers[1:] {
		if ws.temp != nil || ws.isTouched != nil || ws.touched != nil {
			t.Fatalf("helper %d kept its buffer after the run", w+1)
		}
	}
	if after > before && after-before > 4*n {
		t.Fatalf("heap grew %d B over a run (%d vertices, 3 helpers)", after-before, n)
	}
	runtime.KeepAlive(e)
}
