package engine

import (
	"math"
	"testing"

	"graphtinker/internal/core"
	"graphtinker/internal/rmat"
)

// minProgram is a minimal monotone program: distances along unweighted
// edges from vertex 0 (BFS, inlined here to keep the package test
// self-contained; the real algorithms live in internal/algorithms).
func minProgram() Program {
	inf := math.Inf(1)
	return Program{
		Name:        "test-bfs",
		InitVertex:  func(v uint64) float64 { return inf },
		ProcessEdge: func(srcVal float64, w float32) float64 { return srcVal + 1 },
		Reduce:      math.Min,
		Apply: func(old, reduced float64) (float64, bool) {
			if reduced < old {
				return reduced, true
			}
			return old, false
		},
		InitialSeeds: func(ctx SeedContext) {
			ctx.SetValue(0, 0)
			ctx.Activate(0)
		},
		SeedInconsistent: func(batch []Edge, ctx SeedContext) {
			ctx.SetValue(0, 0)
			ctx.Activate(0)
			for _, e := range batch {
				if ctx.Value(e.Src) < inf {
					ctx.Activate(e.Src)
				}
			}
		},
	}
}

func newStore(t *testing.T, edges []Edge) *core.GraphTinker {
	t.Helper()
	gt := core.MustNew(core.DefaultConfig())
	gt.InsertBatch(edges)
	return gt
}

// te builds a unit-weight test edge.
func te(src, dst uint64) Edge { return Edge{Src: src, Dst: dst, Weight: 1} }

func pathEdges(n int) []Edge {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{Src: uint64(i), Dst: uint64(i + 1), Weight: 1})
	}
	return edges
}

func TestModeString(t *testing.T) {
	if FullProcessing.String() != "full" || IncrementalProcessing.String() != "incremental" || Hybrid.String() != "hybrid" {
		t.Fatalf("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatalf("unknown mode string = %q", Mode(9).String())
	}
}

func TestNewValidation(t *testing.T) {
	store := newStore(t, pathEdges(3))
	good := minProgram()
	if _, err := New(store, good, Options{Mode: Hybrid}); err != nil {
		t.Fatalf("valid engine rejected: %v", err)
	}
	bad := good
	bad.Reduce = nil
	if _, err := New(store, bad, Options{}); err == nil {
		t.Fatalf("nil Reduce accepted")
	}
	if _, err := New(store, good, Options{Mode: Mode(42)}); err == nil {
		t.Fatalf("bogus mode accepted")
	}
	if _, err := New(store, good, Options{Threshold: -1}); err == nil {
		t.Fatalf("negative threshold accepted")
	}
	if _, err := New(store, good, Options{MaxIterations: -1}); err == nil {
		t.Fatalf("negative guard accepted")
	}
	for _, strip := range []func(*Program){
		func(p *Program) { p.InitVertex = nil },
		func(p *Program) { p.ProcessEdge = nil },
		func(p *Program) { p.Apply = nil },
		func(p *Program) { p.InitialSeeds = nil },
		func(p *Program) { p.SeedInconsistent = nil },
	} {
		p := minProgram()
		strip(&p)
		if _, err := New(store, p, Options{}); err == nil {
			t.Fatalf("program with missing hook accepted")
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew did not panic")
		}
	}()
	MustNew(newStore(t, nil), Program{}, Options{})
}

func TestStaticRunOnPath(t *testing.T) {
	// With the CAL on the store streams every edge in a full iteration.
	cfg := core.DefaultConfig()
	cfg.Repr, cfg.EnableCAL = core.ReprBlocks, true
	store := core.MustNew(cfg)
	store.InsertBatch(pathEdges(5))
	e := MustNew(store, minProgram(), Options{Mode: FullProcessing})
	res := e.RunFromScratch()
	if !res.Converged {
		t.Fatalf("did not converge")
	}
	for v := uint64(0); v <= 5; v++ {
		if e.Value(v) != float64(v) {
			t.Fatalf("dist[%d] = %g, want %d", v, e.Value(v), v)
		}
	}
	// A 5-edge path needs 5 propagation iterations (+1 empty check).
	if len(res.Iterations) != 6 {
		t.Fatalf("iterations = %d, want 6", len(res.Iterations))
	}
	if res.FullIterations != len(res.Iterations) || res.IncrementalIterations != 0 {
		t.Fatalf("static mode used incremental iterations: %+v", res)
	}
	// Each FP iteration loads the whole edge set.
	if res.EdgesLoaded != uint64(len(res.Iterations))*store.NumEdges() {
		t.Fatalf("EdgesLoaded = %d", res.EdgesLoaded)
	}
	if res.EdgesProcessed >= res.EdgesLoaded {
		t.Fatalf("FP should load more edges than it processes on a path")
	}
}

func TestIncrementalRunOnPath(t *testing.T) {
	store := newStore(t, pathEdges(5))
	e := MustNew(store, minProgram(), Options{Mode: IncrementalProcessing})
	res := e.RunAfterBatch(pathEdges(5))
	if !res.Converged {
		t.Fatalf("did not converge")
	}
	for v := uint64(0); v <= 5; v++ {
		if e.Value(v) != float64(v) {
			t.Fatalf("dist[%d] = %g, want %d", v, e.Value(v), v)
		}
	}
	if res.IncrementalIterations != len(res.Iterations) || res.FullIterations != 0 {
		t.Fatalf("incremental mode used full iterations: %+v", res)
	}
	// IP loads exactly the edges it processes.
	if res.EdgesLoaded != res.EdgesProcessed {
		t.Fatalf("IP loaded %d but processed %d", res.EdgesLoaded, res.EdgesProcessed)
	}
}

func TestIncrementalAcrossBatchesMatchesStatic(t *testing.T) {
	// Insert a graph batch by batch; after each batch the incremental
	// engine must agree with a from-scratch static engine on every vertex.
	all := []Edge{
		te(0, 1), te(1, 2), te(0, 3), te(3, 4), te(4, 2),
		te(2, 5), te(5, 6), te(7, 8), te(6, 7), te(1, 7),
	}
	incStore := core.MustNew(core.DefaultConfig())
	inc := MustNew(incStore, minProgram(), Options{Mode: IncrementalProcessing})
	for i := 0; i < len(all); i += 2 {
		batch := all[i : i+2]
		incStore.InsertBatch(batch)
		inc.RunAfterBatch(batch)

		statStore := core.MustNew(core.DefaultConfig())
		statStore.InsertBatch(all[:i+2])
		stat := MustNew(statStore, minProgram(), Options{Mode: FullProcessing})
		stat.RunFromScratch()

		for v := uint64(0); v < stat.NumVertices(); v++ {
			if inc.Value(v) != stat.Value(v) {
				t.Fatalf("after batch %d: dist[%d] = %g incremental vs %g static", i/2, v, inc.Value(v), stat.Value(v))
			}
		}
	}
}

func TestHybridMatchesStaticResults(t *testing.T) {
	all := pathEdges(50)
	hybStore := core.MustNew(core.DefaultConfig())
	hyb := MustNew(hybStore, minProgram(), Options{Mode: Hybrid})
	for i := 0; i < len(all); i += 10 {
		batch := all[i : i+10]
		hybStore.InsertBatch(batch)
		hyb.RunAfterBatch(batch)
	}
	statStore := newStore(t, all)
	stat := MustNew(statStore, minProgram(), Options{Mode: FullProcessing})
	stat.RunFromScratch()
	for v := uint64(0); v <= 50; v++ {
		if hyb.Value(v) != stat.Value(v) {
			t.Fatalf("dist[%d]: hybrid %g vs static %g", v, hyb.Value(v), stat.Value(v))
		}
	}
}

func TestHybridSwitchesPaths(t *testing.T) {
	// A star graph with a huge frontier after the first iteration forces
	// the inference box above the threshold (FP), while a later tiny
	// frontier stays below it (IP).
	var edges []Edge
	const fan = 2000
	for i := uint64(1); i <= fan; i++ {
		edges = append(edges, te(0, i))     // root fans out
		edges = append(edges, te(i, i+fan)) // second hop
	}
	store := newStore(t, edges)
	e := MustNew(store, minProgram(), Options{Mode: Hybrid})
	res := e.RunFromScratch()
	if res.FullIterations == 0 {
		t.Fatalf("hybrid never chose the FP path: %+v", res.Iterations)
	}
	if res.IncrementalIterations == 0 {
		t.Fatalf("hybrid never chose the IP path: %+v", res.Iterations)
	}
	// Check the decisions actually follow T vs threshold.
	for _, it := range res.Iterations {
		wantFull := it.PredictorT > DefaultThreshold
		if it.UsedFull != wantFull {
			t.Fatalf("iteration %d: T=%g, UsedFull=%v", it.Index, it.PredictorT, it.UsedFull)
		}
	}
}

func TestThresholdOverride(t *testing.T) {
	store := newStore(t, pathEdges(10))
	// Threshold above any possible T forces IP on every iteration.
	e := MustNew(store, minProgram(), Options{Mode: Hybrid, Threshold: 10})
	res := e.RunFromScratch()
	if res.FullIterations != 0 {
		t.Fatalf("huge threshold still chose FP")
	}
	// A threshold below any T (active>=1, E small) forces FP.
	e2 := MustNew(store, minProgram(), Options{Mode: Hybrid, Threshold: 1e-9})
	res2 := e2.RunFromScratch()
	if res2.IncrementalIterations != 0 {
		t.Fatalf("tiny threshold still chose IP")
	}
}

func TestMaxIterationsGuard(t *testing.T) {
	// A program that keeps re-activating forever must trip the guard.
	store := newStore(t, []Edge{te(0, 1), te(1, 0)})
	p := minProgram()
	p.Apply = func(old, reduced float64) (float64, bool) { return reduced, true }
	p.ProcessEdge = func(srcVal float64, w float32) float64 { return 0 }
	e := MustNew(store, p, Options{Mode: IncrementalProcessing, MaxIterations: 7})
	res := e.RunFromScratch()
	if res.Converged {
		t.Fatalf("non-converging program reported convergence")
	}
	if len(res.Iterations) != 7 {
		t.Fatalf("guard allowed %d iterations, want 7", len(res.Iterations))
	}
}

func TestResizeAcrossBatches(t *testing.T) {
	store := core.MustNew(core.DefaultConfig())
	e := MustNew(store, minProgram(), Options{Mode: IncrementalProcessing})
	if e.NumVertices() != 0 {
		t.Fatalf("empty store should give empty property arrays")
	}
	b1 := []Edge{te(0, 1)}
	store.InsertBatch(b1)
	e.RunAfterBatch(b1)
	if e.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2", e.NumVertices())
	}
	b2 := []Edge{te(1, 500)}
	store.InsertBatch(b2)
	e.RunAfterBatch(b2)
	if e.NumVertices() != 501 {
		t.Fatalf("NumVertices = %d, want 501", e.NumVertices())
	}
	if e.Value(500) != 2 {
		t.Fatalf("dist[500] = %g, want 2", e.Value(500))
	}
	// Out-of-range Value returns the init value.
	if !math.IsInf(e.Value(10_000), 1) {
		t.Fatalf("out-of-range Value = %g", e.Value(10_000))
	}
}

func TestRunResultAccounting(t *testing.T) {
	store := newStore(t, pathEdges(4))
	e := MustNew(store, minProgram(), Options{Mode: IncrementalProcessing})
	res := e.RunFromScratch()
	var loaded, processed, active uint64
	for _, it := range res.Iterations {
		loaded += it.EdgesLoaded
		processed += it.EdgesProcessed
		active += it.Active
	}
	if loaded != res.EdgesLoaded || processed != res.EdgesProcessed || active != res.ActiveTotal {
		t.Fatalf("totals do not match iteration sums")
	}
	if res.Algorithm != "test-bfs" || res.Mode != IncrementalProcessing {
		t.Fatalf("result header wrong: %+v", res)
	}
	if res.Duration <= 0 {
		t.Fatalf("duration not recorded")
	}
	if res.ThroughputMEPS() <= 0 {
		t.Fatalf("throughput not computable")
	}
	var zero RunResult
	if zero.ThroughputMEPS() != 0 {
		t.Fatalf("zero-duration throughput should be 0")
	}
}

func TestRunResultMerge(t *testing.T) {
	a := RunResult{EdgesLoaded: 10, EdgesProcessed: 5, ActiveTotal: 3, Converged: true, FullIterations: 1}
	b := RunResult{EdgesLoaded: 20, EdgesProcessed: 15, ActiveTotal: 4, Converged: true, IncrementalIterations: 2}
	a.Merge(b)
	if a.EdgesLoaded != 30 || a.EdgesProcessed != 20 || a.ActiveTotal != 7 {
		t.Fatalf("merge mis-summed: %+v", a)
	}
	if a.FullIterations != 1 || a.IncrementalIterations != 2 {
		t.Fatalf("merge lost iteration counts: %+v", a)
	}
	c := RunResult{Converged: false}
	a.Merge(c)
	if a.Converged {
		t.Fatalf("merge should propagate non-convergence")
	}
}

// rmatEdges draws a Graph500-skewed edge stream over 2^scale vertices.
func rmatEdges(t *testing.T, scale int, m uint64, seed uint64) []Edge {
	t.Helper()
	es, err := rmat.Generate(rmat.Graph500Params(scale, m>>uint(scale), seed))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Edge, len(es))
	for i, e := range es {
		out[i] = Edge(e)
	}
	return out
}

// TestActiveDegreeSumCollected pins the identity the engine records
// ActiveDegreeSum by: every strategy processes exactly the out-edges of the
// active vertices. In every iteration ActiveDegreeSum equals
// EdgesProcessed; in the first iteration after a batch it equals the
// Σ OutDegree over the frontier the program's seeding rule gives; and
// over a whole run it equals that sum plus Σ OutDegree over every vertex
// an apply activated.
func TestActiveDegreeSumCollected(t *testing.T) {
	edges := rmatEdges(t, 9, 6144, 5)
	initial, batch := edges[:4096], edges[4096:]
	type store interface {
		GraphStore
		InsertBatch(edges []Edge) int
	}
	for _, mode := range []Mode{FullProcessing, IncrementalProcessing, Hybrid} {
		for name, build := range map[string]func(p Program) (store, *Engine){
			"sequential": func(p Program) (store, *Engine) {
				s := newStore(t, initial)
				return s, MustNew(s, p, Options{Mode: mode})
			},
			"sharded/1": func(p Program) (store, *Engine) {
				s := shardedStore(t, 1, initial)
				t.Cleanup(s.Close)
				return s, MustNewParallelEngine(s, p, Options{Mode: mode})
			},
			"sharded/3": func(p Program) (store, *Engine) {
				s := shardedStore(t, 3, initial)
				t.Cleanup(s.Close)
				return s, MustNewParallelEngine(s, p, Options{Mode: mode})
			},
			"pull": func(p Program) (store, *Engine) {
				s := mirroredStore(t, initial)
				return s, MustNewVC(s, p, Options{Mode: mode})
			},
		} {
			// Both Apply hooks are set so the sharded strategy accepts the
			// program; the apply phase calls ApplyVertex, which records
			// every vertex it activates.
			var activated []uint64
			p := minProgram()
			p.ApplyVertex = func(v uint64, old, reduced float64) (float64, bool) {
				val, act := p.Apply(old, reduced)
				if act {
					activated = append(activated, v)
				}
				return val, act
			}
			s, e := build(p)
			e.RunFromScratch()

			s.InsertBatch(batch)
			frontier := map[uint64]bool{0: true}
			if mode != FullProcessing {
				for _, b := range batch {
					if e.Value(b.Src) < math.Inf(1) {
						frontier[b.Src] = true
					}
				}
			}
			var seeded, total uint64
			for u := range frontier {
				seeded += uint64(s.OutDegree(u))
			}
			activated = activated[:0]
			res := e.RunAfterBatch(batch)
			for _, v := range activated {
				total += uint64(s.OutDegree(v))
			}
			total += seeded

			var sum uint64
			for _, it := range res.Iterations {
				if it.ActiveDegreeSum != it.EdgesProcessed {
					t.Fatalf("%s/%v iter %d: ActiveDegreeSum %d, EdgesProcessed %d",
						name, mode, it.Index, it.ActiveDegreeSum, it.EdgesProcessed)
				}
				sum += it.ActiveDegreeSum
			}
			if got := res.Iterations[0].ActiveDegreeSum; got != seeded || seeded == 0 {
				t.Fatalf("%s/%v: first-iteration ActiveDegreeSum %d, Σ OutDegree over the %d seeds %d",
					name, mode, got, len(frontier), seeded)
			}
			if sum != total {
				t.Fatalf("%s/%v: run ActiveDegreeSum %d, Σ OutDegree over every frontier %d", name, mode, sum, total)
			}
		}
	}
}

func TestFrontier(t *testing.T) {
	f := newFrontier(100)
	f.add(3)
	f.add(3)
	f.add(64)
	if f.size() != 2 {
		t.Fatalf("size = %d", f.size())
	}
	if !f.contains(3) || !f.contains(64) || f.contains(4) {
		t.Fatalf("membership wrong")
	}
	if f.contains(1 << 40) {
		t.Fatalf("out-of-range contains = true")
	}
	f.clear()
	if f.size() != 0 || f.contains(3) {
		t.Fatalf("clear failed")
	}
	f.grow(1000)
	f.add(999)
	if !f.contains(999) {
		t.Fatalf("grow failed")
	}
}

func TestEngineOnStingerStore(t *testing.T) {
	// The engine must run unchanged over the baseline structure.
	st := newStingerStore(pathEdges(5))
	e := MustNew(st, minProgram(), Options{Mode: FullProcessing})
	e.RunFromScratch()
	for v := uint64(0); v <= 5; v++ {
		if e.Value(v) != float64(v) {
			t.Fatalf("stinger-backed dist[%d] = %g", v, e.Value(v))
		}
	}
}
