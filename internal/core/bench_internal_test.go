package core

import (
	"fmt"
	"testing"
)

// benchEdges synthesizes a skewed (RMAT-like) edge stream without importing
// the generator packages (core must stay dependency-free).
func benchEdges(n int, vertices uint64, seed uint64) []Edge {
	r := &testRand{s: seed}
	out := make([]Edge, n)
	for i := range out {
		// Square the uniform draw to skew sources toward low ids.
		u := r.next() % vertices
		v := r.next() % vertices
		src := (u * u) % vertices
		out[i] = Edge{Src: src, Dst: v, Weight: 1}
	}
	return out
}

func BenchmarkInsertDefaultConfig(b *testing.B) {
	edges := benchEdges(400_000, 8192, 7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := MustNew(DefaultConfig())
		g.InsertBatch(edges)
	}
	b.SetBytes(int64(len(edges)))
}

func BenchmarkInsertNoCAL(b *testing.B) {
	cfg := DefaultConfig()
	cfg.EnableCAL = false
	edges := benchEdges(400_000, 8192, 7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := MustNew(cfg)
		g.InsertBatch(edges)
	}
	b.SetBytes(int64(len(edges)))
}

// BenchmarkApplyOpsBatchSize measures the steady cost per edge op of an
// InsertBatch plus a DeleteBatch of the same edges on a preloaded graph, by
// batch size: the evidence for parallelMinOps. Compare it against a build
// with the cutoff above every size.
func BenchmarkApplyOpsBatchSize(b *testing.B) {
	g := MustNew(DefaultConfig())
	g.InsertBatch(benchEdges(1_000_000, 1<<16, 3))
	fresh := benchEdges(1<<20, 1<<16, 5)
	for _, size := range []int{128, 256, 512, 1024, 2048, 4096} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch := fresh[i*size%(len(fresh)-size):][:size]
				g.InsertBatch(batch)
				g.DeleteBatch(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*size*b.N), "ns/edgeop")
		})
	}
}

// BenchmarkLoneVsShards inserts one skewed 1M-edge stream into a fresh
// store per iteration, in 64k-edge and in 4,096-edge batches: a lone
// GraphTinker, and a Parallel of one and of four shards, on the same cores.
// It is the evidence for how close a lone store's batch apply comes to a
// sharded one (DESIGN.md §3, "Batched apply").
func BenchmarkLoneVsShards(b *testing.B) {
	edges := benchEdges(1<<20, 1<<17, 7)
	type store interface{ InsertBatch([]Edge) int }
	shards := func(n int) func() store {
		return func() store {
			p, err := NewParallel(DefaultConfig(), n)
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
	}
	stores := []struct {
		name  string
		build func() store
	}{
		{"lone", func() store { return MustNew(DefaultConfig()) }},
		{"shards=1", shards(1)},
		{"shards=4", shards(4)},
	}
	for _, batch := range []int{1 << 16, 4096} {
		for _, st := range stores {
			b.Run(fmt.Sprintf("batch=%d/%s", batch, st.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := st.build()
					b.StartTimer()
					for lo := 0; lo < len(edges); lo += batch {
						g.InsertBatch(edges[lo:min(lo+batch, len(edges))])
					}
				}
				b.ReportMetric(float64(len(edges)*b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
			})
		}
	}
}

func BenchmarkFindEdgeHit(b *testing.B) {
	edges := benchEdges(200_000, 4096, 9)
	g := MustNew(DefaultConfig())
	g.InsertBatch(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		g.FindEdge(e.Src, e.Dst)
	}
}

func BenchmarkDeleteOnly(b *testing.B) {
	edges := benchEdges(200_000, 4096, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := MustNew(DefaultConfig())
		g.InsertBatch(edges)
		b.StartTimer()
		g.DeleteBatch(edges)
	}
}

func BenchmarkDeleteAndCompact(b *testing.B) {
	cfg := DefaultConfig()
	cfg.DeleteMode = DeleteAndCompact
	edges := benchEdges(200_000, 4096, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := MustNew(cfg)
		g.InsertBatch(edges)
		b.StartTimer()
		g.DeleteBatch(edges)
	}
}
