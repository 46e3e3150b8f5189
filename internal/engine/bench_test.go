package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/rmat"
)

func benchGraph(b *testing.B, n int) *core.GraphTinker {
	b.Helper()
	g := core.MustNew(core.DefaultConfig())
	r := &testRand{s: 1}
	for i := 0; i < n; i++ {
		u := r.next() % 8192
		g.InsertEdge((u*u)%8192, r.next()%8192, 1)
	}
	return g
}

func benchRun(b *testing.B, mode Mode) {
	g := benchGraph(b, 300_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := MustNew(g, minProgramBench(), Options{Mode: mode})
		res := e.RunFromScratch()
		b.ReportMetric(float64(res.EdgesLoaded), "edges_loaded")
	}
}

// minProgramBench mirrors the test program without *testing.T plumbing.
func minProgramBench() Program {
	p := Program{}
	inf := 1e300
	p.Name = "bench-bfs"
	p.InitVertex = func(v uint64) float64 { return inf }
	p.ProcessEdge = func(srcVal float64, w float32) float64 { return srcVal + 1 }
	p.Reduce = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	p.Apply = func(old, reduced float64) (float64, bool) {
		if reduced < old {
			return reduced, true
		}
		return old, false
	}
	p.InitialSeeds = func(ctx SeedContext) { ctx.SetValue(0, 0); ctx.Activate(0) }
	p.SeedInconsistent = func(batch []Edge, ctx SeedContext) { ctx.SetValue(0, 0); ctx.Activate(0) }
	return p
}

func BenchmarkEngineFullProcessing(b *testing.B)        { benchRun(b, FullProcessing) }
func BenchmarkEngineIncrementalProcessing(b *testing.B) { benchRun(b, IncrementalProcessing) }
func BenchmarkEngineHybrid(b *testing.B)                { benchRun(b, Hybrid) }

// BenchmarkEngineSplit times one scatter iteration (process and merge;
// ns/op is the whole run, helpers' buffers included) on a default
// GraphTinker holding an RMAT graph (scale 16, 16 tuples a vertex), by
// active-set size, in both loading modes, on a one-worker engine and on
// one with GOMAXPROCS workers. Each run from scratch seeds `active` random
// vertices and stops after one iteration. Set the inline cutoff
// (splitMinWork) where the two worker counts cross; to time the split
// below it, rebuild a scratch copy with the cutoff at zero.
func BenchmarkEngineSplit(b *testing.B) {
	g := splitBenchGraph(b)
	maxID, _ := g.MaxVertexID()
	n := int(maxID + 1)
	for _, mode := range []Mode{IncrementalProcessing, FullProcessing} {
		for active := 64; active <= 64<<10; active *= 2 {
			for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
				b.Run(fmt.Sprintf("%v/active=%d/workers=%d", mode, active, procs), func(b *testing.B) {
					prog := oneHopProgram(active, n)
					prev := runtime.GOMAXPROCS(procs)
					e := MustNew(g, prog, Options{Mode: mode})
					runtime.GOMAXPROCS(prev)
					var process, merge time.Duration
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						it := e.RunFromScratch().Iterations[0]
						process += it.ProcessDuration
						merge += it.MergeDuration
					}
					b.ReportMetric(float64(process.Nanoseconds())/float64(b.N), "process_ns/op")
					b.ReportMetric(float64(merge.Nanoseconds())/float64(b.N), "merge_ns/op")
				})
			}
		}
	}
}

var splitGraph *core.GraphTinker

func splitBenchGraph(b *testing.B) *core.GraphTinker {
	if splitGraph == nil {
		es, err := rmat.Generate(rmat.Graph500Params(16, 16, 1))
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]Edge, len(es))
		for i, e := range es {
			batch[i] = Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
		}
		splitGraph = core.MustNew(core.DefaultConfig())
		splitGraph.InsertBatch(batch)
	}
	return splitGraph
}

// oneHopProgram seeds `active` distinct random vertices of [0, n) and
// activates nothing, so every run is one scatter iteration.
func oneHopProgram(active, n int) Program {
	p := minProgramBench()
	active = min(active, n)
	seeds := make([]uint64, 0, active)
	seen := make(map[uint64]bool, active)
	for r := (&testRand{s: 7}); len(seeds) < active; {
		if v := r.next() % uint64(n); !seen[v] {
			seen[v] = true
			seeds = append(seeds, v)
		}
	}
	p.InitialSeeds = func(ctx SeedContext) {
		for _, v := range seeds {
			ctx.SetValue(v, 0)
			ctx.Activate(v)
		}
	}
	p.Apply = func(old, reduced float64) (float64, bool) { return min(old, reduced), false }
	return p
}

func BenchmarkVCEngine(b *testing.B) {
	m := core.MustNewMirrored(core.DefaultConfig())
	r := &testRand{s: 1}
	for i := 0; i < 150_000; i++ {
		u := r.next() % 8192
		m.InsertEdge((u*u)%8192, r.next()%8192, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := MustNewVC(m, minProgramBench(), Options{})
		e.RunFromScratch()
	}
}

// TestRunAllocsIndependentOfFrontier pins that edge walks allocate nothing
// per vertex or per edge: on a warmed engine, a from-scratch run over a
// two-hop star allocates the same whether its frontier holds 512 or 4,096
// vertices, for every strategy in every mode. An engine with helpers buys
// their buffers for every run, so the split engines allocate the same
// whether or not a frontier is large enough to split.
func TestRunAllocsIndependentOfFrontier(t *testing.T) {
	star := func(fan uint64) []Edge {
		var edges []Edge
		for i := uint64(1); i <= fan; i++ {
			edges = append(edges, te(0, i), te(i, fan+i))
		}
		return edges
	}
	allocs := func(e *Engine) float64 {
		e.RunFromScratch()
		return testing.AllocsPerRun(5, func() { e.RunFromScratch() })
	}
	for _, mode := range []Mode{FullProcessing, IncrementalProcessing, Hybrid} {
		opts := Options{Mode: mode}
		for name, build := range map[string]func([]Edge) *Engine{
			"sequential": func(edges []Edge) *Engine {
				return MustNew(newStore(t, edges), minProgram(), opts)
			},
			"sharded": func(edges []Edge) *Engine {
				s := shardedStore(t, 2, edges)
				t.Cleanup(s.Close)
				return shardNew(s, minProgram(), opts)
			},
			"pull": func(edges []Edge) *Engine {
				return MustNewVC(mirroredStore(t, edges), minProgram(), opts)
			},
		} {
			small, large := allocs(build(star(512))), allocs(build(star(4096)))
			if small != large {
				t.Fatalf("%s/%v: %v allocs at a 512-vertex frontier, %v at 4096", name, mode, small, large)
			}
		}
	}
}

func BenchmarkFrontierAddContains(b *testing.B) {
	f := newFrontier(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i) % (1 << 20)
		f.add(v)
		if !f.contains(v) {
			b.Fatal("lost vertex")
		}
		if i%1024 == 1023 {
			f.clear()
		}
	}
}
