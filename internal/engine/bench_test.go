package engine

import (
	"testing"

	"graphtinker/internal/core"
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
// vertices, for every strategy in every mode. The sharded store has two
// shards, so both star sizes fan every iteration past the first out to
// the same goroutines.
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
				return MustNewParallelEngine(s, minProgram(), opts)
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
