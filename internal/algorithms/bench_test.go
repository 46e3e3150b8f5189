package algorithms

import (
	"testing"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/engine"
	"graphtinker/internal/rmat"
)

// BenchmarkHybridAfterBatch is the engine loop of the benchmark module's
// analytics-hybrid workload without its oracle, read and recovery stages:
// RMAT_500K_8M at divisor 4 (2.1M tuples, four times the workload's)
// loaded into one GraphTinker in ten batches, and after each batch RunAfterBatch on hybrid BFS and SSSP
// from the hub and hybrid CC. live_edges/s is the store's live edge count
// summed over the thirty runs, divided by their engine time: the
// workload's analytics_edges_per_s.
func BenchmarkHybridAfterBatch(b *testing.B) {
	d, err := datasets.ByName("RMAT_500K_8M")
	if err != nil {
		b.Fatal(err)
	}
	p, err := d.ScaledParams(4)
	if err != nil {
		b.Fatal(err)
	}
	es, err := rmat.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	// As in the workload, a weight is a function of its endpoints, so a
	// duplicate tuple never raises a weight (which incremental SSSP cannot
	// repair).
	tuples := make([]engine.Edge, len(es))
	for i, e := range es {
		h := (e.Src*0x9e3779b97f4a7c15 ^ e.Dst) * 0xbf58476d1ce4e5b9
		tuples[i] = engine.Edge{Src: e.Src, Dst: e.Dst, Weight: float32(1 + (h>>40)%uint64(p.MaxWeight))}
	}
	hub := HighestDegreeRoots(p.NumVertices(), tuples, 1)[0]
	const batches = 10
	var live, secs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := core.MustNew(core.DefaultConfig())
		engines := []*engine.Engine{
			engine.MustNew(g, BFS(hub), engine.Options{Mode: engine.Hybrid}),
			engine.MustNew(g, SSSP(hub), engine.Options{Mode: engine.Hybrid}),
			engine.MustNew(g, CC(), engine.Options{Mode: engine.Hybrid}),
		}
		for k := 0; k < batches; k++ {
			batch := tuples[k*len(tuples)/batches : (k+1)*len(tuples)/batches]
			g.InsertBatch(batch)
			n := float64(g.NumEdges())
			for _, eng := range engines {
				t0 := time.Now()
				res := eng.RunAfterBatch(batch)
				secs += time.Since(t0).Seconds()
				live += n
				if !res.Converged {
					b.Fatalf("batch %d: %s did not converge", k, res.Algorithm)
				}
			}
		}
	}
	b.ReportMetric(live/secs, "live_edges/s")
}
