package graphtinker_test

import (
	"fmt"

	"graphtinker"
)

// The basic lifecycle: build a graph, query it, mutate it.
func ExampleNew() {
	g, err := graphtinker.New(graphtinker.DefaultConfig())
	if err != nil {
		panic(err)
	}
	g.InsertEdge(1, 2, 0.5)
	g.InsertEdge(1, 3, 1.5)
	g.InsertEdge(1, 2, 2.5) // duplicate: updates the weight

	w, ok := g.FindEdge(1, 2)
	fmt.Println(w, ok)
	fmt.Println(g.OutDegree(1), g.NumEdges())

	g.DeleteEdge(1, 3)
	fmt.Println(g.NumEdges())
	// Output:
	// 2.5 true
	// 2 2
	// 1
}

// Running an analytics program with the hybrid engine.
func ExampleNewEngine() {
	g := graphtinker.MustNew(graphtinker.DefaultConfig())
	g.InsertBatch([]graphtinker.Edge{
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 1, Dst: 2, Weight: 2},
		{Src: 0, Dst: 2, Weight: 10},
	})
	eng, err := graphtinker.NewEngine(g, graphtinker.SSSP(0), graphtinker.EngineOptions{
		Mode: graphtinker.Hybrid,
	})
	if err != nil {
		panic(err)
	}
	eng.RunFromScratch()
	fmt.Println(eng.Value(2)) // 2-hop path beats the direct heavy edge
	// Output:
	// 4
}

// Incremental processing across batch updates: only inconsistent vertices
// are re-processed.
func ExampleEngine_RunAfterBatch() {
	g := graphtinker.MustNew(graphtinker.DefaultConfig())
	eng := graphtinker.MustNewEngine(g, graphtinker.BFS(0), graphtinker.EngineOptions{
		Mode: graphtinker.IncrementalProcessing,
	})

	batch1 := []graphtinker.Edge{{Src: 0, Dst: 1, Weight: 1}}
	g.InsertBatch(batch1)
	eng.RunAfterBatch(batch1)
	fmt.Println(eng.Value(1))

	batch2 := []graphtinker.Edge{{Src: 1, Dst: 2, Weight: 1}}
	g.InsertBatch(batch2)
	res := eng.RunAfterBatch(batch2)
	fmt.Println(eng.Value(2), res.Converged)
	// Output:
	// 1
	// 2 true
}

// Sharded parallel loading (the paper's Sec. III.D model).
func ExampleNewParallel() {
	p, err := graphtinker.NewParallel(graphtinker.DefaultConfig(), 4)
	if err != nil {
		panic(err)
	}
	batch := make([]graphtinker.Edge, 0, 1000)
	for i := uint64(0); i < 1000; i++ {
		batch = append(batch, graphtinker.Edge{Src: i % 100, Dst: i, Weight: 1})
	}
	inserted := p.InsertBatch(batch)
	fmt.Println(inserted, p.NumEdges())
	// Output:
	// 1000 1000
}

// The delete-and-compact mechanism keeps the structure dense as the graph
// shrinks. The block representation is pinned so the example shows the
// paper's compactor; under the adaptive default the vertex would never
// enter the block format at all.
func ExampleConfig_deleteAndCompact() {
	cfg := graphtinker.DefaultConfig()
	cfg.DeleteMode = graphtinker.DeleteAndCompact
	cfg.Repr = graphtinker.ReprBlocks
	g := graphtinker.MustNew(cfg)
	for i := uint64(0); i < 500; i++ {
		g.InsertEdge(7, i, 1)
	}
	for i := uint64(0); i < 500; i++ {
		g.DeleteEdge(7, i)
	}
	occ := g.OccupancyReport()
	fmt.Println(g.NumEdges(), occ.LiveBlocks) // only the top-parent block remains
	// Output:
	// 0 1
}
