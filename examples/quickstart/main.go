// Quickstart: build a small dynamic graph, query it, and run BFS with the
// hybrid engine — the smallest end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"graphtinker"
)

func main() {
	// A GraphTinker instance with the default configuration: adaptive
	// slice/cuckoo edge storage, SGH on, no CAL (one copy of each edge),
	// delete-only deletion.
	g, err := graphtinker.New(graphtinker.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Insert a small road network. InsertEdge returns true for new edges;
	// inserting an existing edge updates its weight instead.
	edges := []graphtinker.Edge{
		{Src: 1, Dst: 2, Weight: 4}, {Src: 1, Dst: 3, Weight: 1},
		{Src: 3, Dst: 2, Weight: 1}, {Src: 2, Dst: 4, Weight: 5},
		{Src: 3, Dst: 4, Weight: 8}, {Src: 4, Dst: 5, Weight: 1},
	}
	fmt.Printf("inserted %d new edges\n", g.InsertBatch(edges))

	// Point queries.
	if w, ok := g.FindEdge(1, 3); ok {
		fmt.Printf("edge 1->3 has weight %g\n", w)
	}
	fmt.Printf("out-degree of 1: %d\n", g.OutDegree(1))

	// Deleting an edge; the structure reports whether it existed.
	g.DeleteEdge(3, 4)
	fmt.Printf("after delete, %d edges remain\n", g.NumEdges())

	// Run BFS from vertex 1 with the hybrid engine: each iteration it
	// picks the cheaper edge-loading path (stream everything vs walk the
	// active vertices) using the paper's T = A/E predictor.
	eng, err := graphtinker.NewEngine(g, graphtinker.BFS(1), graphtinker.EngineOptions{
		Mode: graphtinker.Hybrid,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := eng.RunFromScratch()
	for v := uint64(1); v <= 5; v++ {
		fmt.Printf("bfs distance 1 -> %d: %g\n", v, eng.Value(v))
	}
	fmt.Printf("engine: %d iterations (%d full, %d incremental), %.2f Medges/s\n",
		len(res.Iterations), res.FullIterations, res.IncrementalIterations, res.ThroughputMEPS())

	// Shortest paths respect weights: 1->2 via 3 costs 2, direct costs 4.
	sssp := graphtinker.MustNewEngine(g, graphtinker.SSSP(1), graphtinker.EngineOptions{
		Mode: graphtinker.Hybrid,
	})
	sssp.RunFromScratch()
	fmt.Printf("sssp distance 1 -> 2: %g (via vertex 3)\n", sssp.Value(2))
}
