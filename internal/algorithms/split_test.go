package algorithms

import (
	"fmt"
	"runtime"
	"testing"

	"graphtinker/internal/core"
	"graphtinker/internal/engine"
)

// splitEdges is an RMAT graph plus three hubs whose out-degree is above
// the cuckoo promote degree, so a default store holds slice and cuckoo
// vertices and both tiers' part walks run.
func splitEdges() (initial, batch, deleted []engine.Edge) {
	edges := randomEdges(4096, 40000, 43, false)
	for hub := uint64(0); hub < 3; hub++ {
		for i := uint64(0); i < core.DefaultCuckooPromoteDegree+500; i++ {
			dst := (hub*7919 + i*13) % 4096
			edges = append(edges, engine.Edge{Src: hub * 101, Dst: dst, Weight: edgeWeight(hub*101, dst)})
		}
	}
	// Shuffle the hubs' edges in, so the batch and the deletions hit them.
	r := uint64(5)
	for i := len(edges) - 1; i > 0; i-- {
		r = r*6364136223846793005 + 1442695040888963407
		j := int(r>>33) % (i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	cut := len(edges) * 3 / 4
	initial, batch = edges[:cut], edges[cut:]
	deleted = append(append([]engine.Edge{}, initial[:2000]...), batch[:1000]...)
	return initial, batch, deleted
}

// stripTimes drops the wall-clock fields of a trace, the only ones that
// may differ between worker counts.
func stripTimes(its []engine.IterationStats) []engine.IterationStats {
	out := append([]engine.IterationStats(nil), its...)
	for i := range out {
		out[i].Duration, out[i].ProcessDuration, out[i].MergeDuration, out[i].ApplyDuration = 0, 0, 0, 0
	}
	return out
}

// TestSplitEngineMatchesOneWorker runs BFS, SSSP, CC and BFS-parents in
// every mode on engines that split their scatter across GOMAXPROCS
// workers — over a default GraphTinker, a 2-shard Parallel, a Mirrored and
// a 3-shard ReprBlocks Parallel with the CAL on (the figures' store, which
// splits by whole shards), at GOMAXPROCS 1, 2 and 4 — through a
// from-scratch run, a run after an insert batch and a from-scratch rerun
// after a delete batch. Every step must leave the values and the iteration
// trace (all but wall time) of a one-worker engine built at GOMAXPROCS 1
// over a lone graph of the store's representation (a full iteration's
// EdgesLoaded depends on it): a lost merge changes values, a chunk or a
// shard walked twice changes EdgesProcessed.
func TestSplitEngineMatchesOneWorker(t *testing.T) {
	initial, batch, deleted := splitEdges()
	programs := map[string]func() engine.Program{
		"bfs":         func() engine.Program { return BFS(0) },
		"sssp":        func() engine.Program { return SSSP(0) },
		"cc":          CC,
		"bfs-parents": func() engine.Program { return BFSWithParents(0) },
	}
	type store interface {
		engine.GraphStore
		InsertBatch(edges []core.Edge) int
		DeleteBatch(edges []core.Edge) int
	}
	blocksCAL := core.DefaultConfig()
	blocksCAL.Repr, blocksCAL.EnableCAL = core.ReprBlocks, true
	parallel := func(cfg core.Config, shards int) func(t *testing.T) store {
		return func(t *testing.T) store {
			p, err := core.NewParallel(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		}
	}
	stores := map[string]struct {
		ref   core.Config // the one-worker reference's lone graph
		build func(t *testing.T) store
	}{
		"graphtinker":     {core.DefaultConfig(), func(*testing.T) store { return core.MustNew(core.DefaultConfig()) }},
		"parallel":        {core.DefaultConfig(), parallel(core.DefaultConfig(), 2)},
		"mirrored":        {core.DefaultConfig(), func(*testing.T) store { return core.MustNewMirrored(core.DefaultConfig()) }},
		"blocks-parallel": {blocksCAL, parallel(blocksCAL, 3)},
	}
	for name, program := range programs {
		for _, mode := range allModes() {
			opts := engine.Options{Mode: mode, MaxIterations: 100000}
			type step struct {
				values []float64
				trace  []engine.IterationStats
			}
			steps := []func(s store, e *engine.Engine) engine.RunResult{
				func(s store, e *engine.Engine) engine.RunResult {
					s.InsertBatch(initial)
					return e.RunFromScratch()
				},
				func(s store, e *engine.Engine) engine.RunResult {
					s.InsertBatch(batch)
					return e.RunAfterBatch(batch)
				},
				func(s store, e *engine.Engine) engine.RunResult {
					s.DeleteBatch(deleted)
					return e.RunFromScratch()
				},
			}
			wants := map[core.Config][]step{}
			for _, st := range stores {
				if _, ok := wants[st.ref]; ok {
					continue
				}
				ref := core.MustNew(st.ref)
				one := oneWorker(ref, program(), opts)
				for _, run := range steps {
					res := run(ref, one)
					wants[st.ref] = append(wants[st.ref], step{append([]float64(nil), one.Values()...), stripTimes(res.Iterations)})
				}
			}
			for sname, st := range stores {
				want, build := wants[st.ref], st.build
				for _, procs := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/%v/%s/procs=%d", name, mode, sname, procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						s := build(t)
						e := engine.MustNew(s, program(), opts)
						merged := false
						for i, run := range steps {
							res := run(s, e)
							if !res.Converged {
								t.Fatalf("step %d did not converge", i)
							}
							got := e.Values()
							if len(got) != len(want[i].values) {
								t.Fatalf("step %d: %d values, one worker %d", i, len(got), len(want[i].values))
							}
							for v := range got {
								if got[v] != want[i].values[v] {
									t.Fatalf("step %d: value[%d] = %g, one worker %g", i, v, got[v], want[i].values[v])
								}
							}
							trace := stripTimes(res.Iterations)
							if len(trace) != len(want[i].trace) {
								t.Fatalf("step %d: %d iterations, one worker %d", i, len(trace), len(want[i].trace))
							}
							for k := range trace {
								if trace[k] != want[i].trace[k] {
									t.Fatalf("step %d iteration %d:\nsplit      %+v\none worker %+v", i, k, trace[k], want[i].trace[k])
								}
							}
							for _, it := range res.Iterations {
								merged = merged || it.MergeDuration > 0
							}
						}
						if merged != (procs > 1) {
							t.Fatalf("merged %v at GOMAXPROCS %d", merged, procs)
						}
					})
				}
			}
		}
	}
}

// oneWorker builds an engine at GOMAXPROCS 1, which scatters on one
// worker over any store.
func oneWorker(s engine.GraphStore, prog engine.Program, opts engine.Options) *engine.Engine {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return engine.MustNew(s, prog, opts)
}
