// Socialstream simulates the paper's motivating workload: a social network
// whose follow-graph evolves in batches while connected-components
// analytics run continuously on the live graph.
//
// Each batch the stream inserts a skewed burst of new follow edges
// (mirrored, so components are weakly connected), then the incremental CC
// engine repairs its labels by touching only the inconsistent vertices.
// The example prints, per batch, how much work the engine actually did
// compared with the from-scratch recomputation a static engine would pay.
package main

import (
	"fmt"
	"log"

	"graphtinker"
)

// burst synthesizes one batch of follow events with preferential
// attachment: celebrities (low ids) attract most followers.
func burst(seed *uint64, size int, users uint64) []graphtinker.Edge {
	next := func() uint64 {
		*seed += 0x9e3779b97f4a7c15
		z := *seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	edges := make([]graphtinker.Edge, 0, 2*size)
	for i := 0; i < size; i++ {
		follower := next() % users
		// Square the draw: most follows target the same few celebrities.
		celeb := (next() % users) * (next() % users) % users
		if follower == celeb {
			celeb = (celeb + 1) % users
		}
		edges = append(edges,
			graphtinker.Edge{Src: follower, Dst: celeb, Weight: 1},
			graphtinker.Edge{Src: celeb, Dst: follower, Weight: 1},
		)
	}
	return edges
}

func main() {
	const (
		users     = 200_000
		batches   = 12
		batchSize = 50_000
	)

	g, err := graphtinker.New(graphtinker.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	inc := graphtinker.MustNewEngine(g, graphtinker.CC(), graphtinker.EngineOptions{
		Mode: graphtinker.IncrementalProcessing,
	})

	fmt.Println("batch  edges      components  incr-edges  full-edges  saved")
	seed := uint64(42)
	for b := 0; b < batches; b++ {
		batch := burst(&seed, batchSize, users)
		g.InsertBatch(batch)

		res := inc.RunAfterBatch(batch)

		// What a from-scratch static engine would have loaded for the same
		// state: every live edge, once per iteration.
		full := graphtinker.MustNewEngine(g, graphtinker.CC(), graphtinker.EngineOptions{
			Mode: graphtinker.FullProcessing,
		})
		fullRes := full.RunFromScratch()

		components := countComponents(inc)
		saved := 1 - float64(res.EdgesLoaded)/float64(fullRes.EdgesLoaded)
		fmt.Printf("%5d  %9d  %10d  %10d  %10d  %4.0f%%\n",
			b+1, g.NumEdges(), components, res.EdgesLoaded, fullRes.EdgesLoaded, 100*saved)

		// The incremental labels must agree with the recomputation.
		for v := uint64(0); v < inc.NumVertices(); v++ {
			if inc.Value(v) != full.Value(v) {
				log.Fatalf("incremental CC diverged at vertex %d", v)
			}
		}
	}

	st := g.Stats()
	fmt.Printf("\nstructure: %d edges, %d RHH swaps, %d branch-outs, max generation %d\n",
		g.NumEdges(), st.RHHSwaps, st.Branches, st.MaxGeneration)
	occ := g.OccupancyReport()
	fmt.Printf("occupancy: edgeblock fill %.1f%%\n", 100*occ.Fill())
}

func countComponents(eng *graphtinker.Engine) int {
	seen := make(map[float64]struct{})
	for v := uint64(0); v < eng.NumVertices(); v++ {
		seen[eng.Value(v)] = struct{}{}
	}
	return len(seen)
}
