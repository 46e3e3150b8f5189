package algorithms

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"graphtinker/internal/core"
	"graphtinker/internal/engine"
)

// strategyRun is one engine under test with the store it reads.
type strategyRun struct {
	name  string
	store interface {
		engine.GraphStore
		InsertBatch(edges []core.Edge) int
		DeleteBatch(edges []core.Edge) int
	}
	eng *engine.Engine
}

// TestStrategiesAgreeOnShippedPrograms runs the shipped programs on every
// edge-loading strategy — one-worker scatter on a GraphTinker (built at
// GOMAXPROCS 1), scatter split across four workers on another, scatter
// split one worker per shard on a 1- and a 3-shard Parallel, pull on a
// Mirrored — in every mode, through a from-scratch run, a run after an
// insert batch, and a from-scratch rerun after a delete batch. After each
// step every strategy must hold exactly the values the one-worker scatter
// holds in that mode. PageRank scatters on one worker on every store (New
// does not split an ApplyVertex program); pull reduces its sums in another
// order, so PageRank agrees to a bound rather than bit for bit. The
// graph's 2,560 vertices pass the engine's split cutoff (2,048), so the
// split row splits in every mode.
func TestStrategiesAgreeOnShippedPrograms(t *testing.T) {
	edges := randomEdges(2560, 12000, 41, false)
	initial, batch := edges[:8000], edges[8000:]
	deleted := append(append([]engine.Edge{}, initial[:600]...), batch[:400]...)
	splitIn := map[engine.Mode]bool{}

	programs := map[string]func(engine.GraphStore) engine.Program{
		"bfs":         func(engine.GraphStore) engine.Program { return BFS(3) },
		"sssp":        func(engine.GraphStore) engine.Program { return SSSP(3) },
		"cc":          func(engine.GraphStore) engine.Program { return CC() },
		"bfs-parents": func(engine.GraphStore) engine.Program { return BFSWithParents(3) },
		"pagerank": func(s engine.GraphStore) engine.Program {
			return PageRankDelta(DefaultPageRankConfig(s))
		},
	}
	for name, program := range programs {
		for _, mode := range allModes() {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				opts := engine.Options{Mode: mode, MaxIterations: 100000}
				g := core.MustNew(core.DefaultConfig())
				g.InsertBatch(initial)
				gs := core.MustNew(core.DefaultConfig())
				gs.InsertBatch(initial)
				m := core.MustNewMirrored(core.DefaultConfig())
				m.InsertBatch(initial)
				prev := runtime.GOMAXPROCS(4)
				split := engine.MustNew(gs, program(gs), opts)
				runtime.GOMAXPROCS(prev)
				runs := []strategyRun{
					{"sequential", g, oneWorker(g, program(g), opts)},
					{"split", gs, split},
					{"pull", m, engine.MustNewVC(m, program(m), opts)},
				}
				for _, shards := range []int{1, 3} {
					p, err := core.NewParallel(core.DefaultConfig(), shards)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { p.Close() })
					p.InsertBatch(initial)
					prev := runtime.GOMAXPROCS(shards)
					eng := engine.MustNew(p, program(p), opts)
					runtime.GOMAXPROCS(prev)
					runs = append(runs, strategyRun{fmt.Sprintf("sharded/%d", shards), p, eng})
				}

				step := func(label string, run func(r strategyRun) engine.RunResult) {
					for _, r := range runs {
						res := run(r)
						if !res.Converged {
							t.Fatalf("%s: %s did not converge", label, r.name)
						}
						for _, it := range res.Iterations {
							splitIn[mode] = splitIn[mode] || r.name == "split" && it.MergeDuration > 0
						}
					}
					want := runs[0].eng.Values()
					for _, r := range runs[1:] {
						got := r.eng.Values()
						if len(got) != len(want) {
							t.Fatalf("%s: %s has %d values, sequential %d", label, r.name, len(got), len(want))
						}
						for v := range want {
							if got[v] != want[v] && (name != "pagerank" || math.Abs(got[v]-want[v]) > 1e-6) {
								t.Fatalf("%s: %s value[%d] = %g, sequential %g", label, r.name, v, got[v], want[v])
							}
						}
					}
				}
				step("from scratch", func(r strategyRun) engine.RunResult { return r.eng.RunFromScratch() })
				step("after insert", func(r strategyRun) engine.RunResult {
					r.store.InsertBatch(batch)
					return r.eng.RunAfterBatch(batch)
				})
				step("after delete", func(r strategyRun) engine.RunResult {
					r.store.DeleteBatch(deleted)
					return r.eng.RunFromScratch()
				})
			})
		}
	}
	for _, mode := range allModes() {
		if !splitIn[mode] {
			t.Errorf("%v: the split row never split", mode)
		}
	}
}
