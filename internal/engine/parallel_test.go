package engine

import (
	"fmt"
	"runtime"
	"testing"

	"graphtinker/internal/core"
	"graphtinker/internal/stinger"
)

func shardedStore(t *testing.T, shards int, edges []Edge) *core.Parallel {
	t.Helper()
	p, err := core.NewParallel(core.DefaultConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	p.InsertBatch(edges)
	return p
}

func randomTestEdges(n int, vertices uint64, seed uint64) []Edge {
	r := &testRand{s: seed}
	out := make([]Edge, n)
	for i := range out {
		out[i] = te(r.next()%vertices, r.next()%vertices)
	}
	return out
}

// splitTestEdges is a random graph whose BFS frontiers from vertex 0 grow
// past splitMinWork, so an engine with helpers splits some iterations in
// either mode.
func splitTestEdges(seed uint64) []Edge {
	return randomTestEdges(8*4*splitMinWork, 4*splitMinWork, seed)
}

// requireSplit fails unless some iteration of the run split its scatter,
// which records a merge phase.
func requireSplit(t *testing.T, name string, res RunResult) {
	t.Helper()
	for _, it := range res.Iterations {
		if it.MergeDuration > 0 {
			return
		}
	}
	t.Fatalf("%s: no iteration split", name)
}

// oneWorker builds New's engine at GOMAXPROCS 1, which scatters on one
// worker over any store.
func oneWorker(store GraphStore, prog Program, opts Options) *Engine {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return MustNew(store, prog, opts)
}

// shardNew builds New's engine at GOMAXPROCS = the store's shard count:
// one worker per shard, each dealt a whole shard where the representation
// does not stripe.
func shardNew(store interface {
	GraphStore
	NumShards() int
}, prog Program, opts Options) *Engine {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(store.NumShards()))
	return MustNew(store, prog, opts)
}

// splitNew builds New's engine with at least two workers, whatever
// GOMAXPROCS the tests run at.
func splitNew(store GraphStore, prog Program, opts Options) *Engine {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	return MustNew(store, prog, opts)
}

func TestParallelEngineMatchesSequential(t *testing.T) {
	for _, mode := range []Mode{FullProcessing, IncrementalProcessing, Hybrid} {
		for _, shards := range []int{1, 3, 8} {
			edges := splitTestEdges(uint64(shards)*7 + uint64(mode))
			seq := oneWorker(newStore(t, edges), minProgram(), Options{Mode: mode})
			seq.RunFromScratch()

			par := shardNew(shardedStore(t, shards, edges), minProgram(), Options{Mode: mode})
			res := par.RunFromScratch()
			if !res.Converged {
				t.Fatalf("mode %v shards %d: did not converge", mode, shards)
			}
			if shards > 1 {
				requireSplit(t, fmt.Sprintf("mode %v shards %d", mode, shards), res)
			}
			if par.NumVertices() != seq.NumVertices() {
				t.Fatalf("vertex spaces differ")
			}
			for v := uint64(0); v < seq.NumVertices(); v++ {
				if par.Value(v) != seq.Value(v) {
					t.Fatalf("mode %v shards %d: val[%d] = %g, want %g",
						mode, shards, v, par.Value(v), seq.Value(v))
				}
			}
		}
	}
}

func TestParallelEngineIncrementalBatches(t *testing.T) {
	store, err := core.NewParallel(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := shardNew(store, minProgram(), Options{Mode: Hybrid})
	all := pathEdges(40)
	for i := 0; i < len(all); i += 8 {
		batch := all[i : i+8]
		store.InsertBatch(batch)
		res := eng.RunAfterBatch(batch)
		if !res.Converged {
			t.Fatalf("batch at %d did not converge", i)
		}
	}
	for v := uint64(0); v <= 40; v++ {
		if eng.Value(v) != float64(v) {
			t.Fatalf("dist[%d] = %g", v, eng.Value(v))
		}
	}
}

func TestParallelEngineFullModeRestartsPerBatch(t *testing.T) {
	store := shardedStore(t, 2, nil)
	eng := shardNew(store, minProgram(), Options{Mode: FullProcessing})
	b1 := []Edge{te(0, 1)}
	store.InsertBatch(b1)
	eng.RunAfterBatch(b1)
	if eng.Value(1) != 1 {
		t.Fatalf("val[1] = %g", eng.Value(1))
	}
	b2 := []Edge{te(1, 2)}
	store.InsertBatch(b2)
	res := eng.RunAfterBatch(b2)
	if eng.Value(2) != 2 || !res.Converged {
		t.Fatalf("val[2] = %g", eng.Value(2))
	}
}

func TestParallelEngineAccountsWork(t *testing.T) {
	edges := splitTestEdges(9)
	eng := shardNew(shardedStore(t, 4, edges), minProgram(), Options{Mode: FullProcessing})
	res := eng.RunFromScratch()
	if res.EdgesLoaded == 0 || res.EdgesProcessed == 0 {
		t.Fatalf("no work accounted: %+v", res)
	}
	requireSplit(t, "4 shards", res)
	// Each FP iteration streams the whole live edge set across workers.
	live := uint64(0)
	for _, it := range res.Iterations {
		if it.EdgesLoaded == 0 {
			t.Fatalf("iteration %d loaded nothing", it.Index)
		}
		live = it.EdgesLoaded
	}
	_ = live
	if res.Duration <= 0 {
		t.Fatalf("no duration")
	}
}

func TestParallelEngineGuard(t *testing.T) {
	edges := []Edge{te(0, 1), te(1, 0)}
	p := minProgram()
	p.Apply = func(old, reduced float64) (float64, bool) { return reduced, true }
	p.ProcessEdge = func(srcVal float64, w float32) float64 { return 0 }
	eng := shardNew(shardedStore(t, 2, edges), p, Options{Mode: IncrementalProcessing, MaxIterations: 4})
	res := eng.RunFromScratch()
	if res.Converged || len(res.Iterations) != 4 {
		t.Fatalf("guard did not trip: %+v", res)
	}
}

func TestParallelEngineOverStingerShards(t *testing.T) {
	// New splits a stinger.Parallel by shard; it must produce identical
	// results over it.
	edges := splitTestEdges(55)
	stPar, err := stinger.NewParallel(stinger.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	stBatch := make([]stinger.Edge, len(edges))
	for i, e := range edges {
		stBatch[i] = stinger.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
	}
	stPar.InsertBatch(stBatch)

	eng := shardNew(stPar, minProgram(), Options{Mode: Hybrid})
	res := eng.RunFromScratch()
	if !res.Converged {
		t.Fatalf("did not converge")
	}
	requireSplit(t, "stinger shards", res)
	seq := oneWorker(newStore(t, edges), minProgram(), Options{Mode: Hybrid})
	seq.RunFromScratch()
	for v := uint64(0); v < seq.NumVertices(); v++ {
		if eng.Value(v) != seq.Value(v) {
			t.Fatalf("val[%d]: stinger-sharded %g vs sequential %g", v, eng.Value(v), seq.Value(v))
		}
	}
}

func TestParallelEngineValueOutOfRange(t *testing.T) {
	eng := shardNew(shardedStore(t, 2, []Edge{te(0, 1)}), minProgram(), Options{})
	if eng.Value(1<<40) != eng.Value(1<<41) {
		t.Fatalf("out-of-range values should be the init value")
	}
}
