// Hybridengine traces the inference box of the paper's hybrid graph engine
// (Sec. IV.B): for every iteration of a BFS run it prints the predictor
// T = A/E (active vertices over edges loaded so far), the threshold, and
// which edge-loading path the engine chose — a full sweep of the store
// (which on the default store reads only the active sources' edges) or
// incremental walks of the active vertices.
//
// The input graph is shaped to force both decisions within one run: a long
// path (tiny frontiers -> incremental) that fans out into a dense bipartite
// core (huge frontier -> full).
package main

import (
	"fmt"
	"log"

	"graphtinker"
)

func main() {
	g, err := graphtinker.New(graphtinker.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1 of the topology: a 30-hop path from the root.
	const pathLen = 30
	for i := uint64(0); i < pathLen; i++ {
		g.InsertEdge(i, i+1, 1)
	}
	// Phase 2: the path's end fans out to 3000 hubs, each reaching 3000
	// leaves — two iterations with enormous frontiers.
	const fan = 3000
	base := uint64(pathLen + 1)
	for i := uint64(0); i < fan; i++ {
		g.InsertEdge(pathLen, base+i, 1)
		g.InsertEdge(base+i, base+fan+(i*7)%fan, 1)
	}
	fmt.Printf("graph: %d edges, %d vertices\n\n", g.NumEdges(), g.NonEmptySources())

	eng := graphtinker.MustNewEngine(g, graphtinker.BFS(0), graphtinker.EngineOptions{
		Mode: graphtinker.Hybrid,
	})
	res := eng.RunFromScratch()

	fmt.Printf("threshold: T > %.3f selects full processing\n\n", graphtinker.DefaultThreshold)
	fmt.Println("iter  active  degreeSum  T          path         edges-loaded")
	for _, it := range res.Iterations {
		path := "incremental"
		if it.UsedFull {
			path = "full"
		}
		fmt.Printf("%4d  %6d  %9d  %.6f  %-11s  %d\n",
			it.Index, it.Active, it.ActiveDegreeSum, it.PredictorT, path, it.EdgesLoaded)
	}
	fmt.Printf("\nrun: %d iterations (%d full, %d incremental), %d edges loaded, %.2f Medges/s\n",
		len(res.Iterations), res.FullIterations, res.IncrementalIterations,
		res.EdgesLoaded, res.ThroughputMEPS())

	// Compare with the two pure modes on the same graph.
	for _, mode := range []graphtinker.Mode{graphtinker.FullProcessing, graphtinker.IncrementalProcessing} {
		e := graphtinker.MustNewEngine(g, graphtinker.BFS(0), graphtinker.EngineOptions{Mode: mode})
		r := e.RunFromScratch()
		fmt.Printf("pure %-12v: %d edges loaded in %d iterations\n",
			mode, r.EdgesLoaded, len(r.Iterations))
	}
	fmt.Println("\nshape to observe: hybrid loads ~path-length edges on the path")
	fmt.Println("iterations and only streams the whole graph when the frontier explodes.")
}
