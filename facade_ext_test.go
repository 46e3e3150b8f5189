package graphtinker

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFacadeSnapshotRoundTrip(t *testing.T) {
	g := MustNew(DefaultConfig())
	g.InsertEdge(1, 2, 3.5)
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := restored.FindEdge(1, 2); !ok || w != 3.5 {
		t.Fatalf("restored edge = (%g,%v)", w, ok)
	}
}

func TestFacadeCSRExport(t *testing.T) {
	g := MustNew(DefaultConfig())
	g.InsertEdge(0, 2, 1)
	g.InsertEdge(0, 1, 2)
	csr := g.ExportCSR()
	if csr.NumEdges() != 2 || csr.OutDegree(0) != 2 {
		t.Fatalf("CSR shape wrong: %d edges, degree %d", csr.NumEdges(), csr.OutDegree(0))
	}
	if w, ok := csr.HasEdge(0, 1); !ok || w != 2 {
		t.Fatalf("HasEdge = (%g,%v)", w, ok)
	}
}

func TestFacadeMirroredAndVCEngine(t *testing.T) {
	m, err := NewMirrored(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.InsertBatch([]Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
	})
	vc, err := NewVCEngine(m, BFS(0), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := vc.RunFromScratch()
	if !res.Converged || vc.Value(2) != 2 {
		t.Fatalf("VC BFS: converged=%v val[2]=%g", res.Converged, vc.Value(2))
	}
	if m.InDegree(2) != 1 {
		t.Fatalf("InDegree = %d", m.InDegree(2))
	}
	// MustNewVCEngine panics on an invalid program.
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNewVCEngine did not panic")
		}
	}()
	MustNewVCEngine(m, Program{}, EngineOptions{})
}

func TestFacadePageRank(t *testing.T) {
	g := MustNew(DefaultConfig())
	g.InsertEdge(0, 1, 1)
	cfg := DefaultPageRankConfig(g)
	eng := MustNewEngine(g, PageRank(cfg), EngineOptions{Mode: FullProcessing, MaxIterations: 10000})
	res := eng.RunFromScratch()
	if !res.Converged {
		t.Fatalf("pagerank did not converge")
	}
	if eng.Value(1) <= eng.Value(0) {
		t.Fatalf("sink should out-rank source: %g vs %g", eng.Value(1), eng.Value(0))
	}
}

func TestFacadeEdgeListIO(t *testing.T) {
	edges, err := ReadEdgeList(strings.NewReader("1 2 4\n# c\n2 3\n"), EdgeFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 || edges[0].Weight != 4 {
		t.Fatalf("edges = %v", edges)
	}
	batches, err := ReadEdgeListBatches(strings.NewReader("1 2\n2 3\n3 4\n"), EdgeFileOptions{}, 2)
	if err != nil || len(batches) != 2 {
		t.Fatalf("batches = %v err = %v", batches, err)
	}
	g := MustNew(DefaultConfig())
	g.InsertBatch(edges)
	var buf bytes.Buffer
	if err := WriteGraphEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 2 4") {
		t.Fatalf("edge list output = %q", buf.String())
	}
	var buf2 bytes.Buffer
	if err := WriteEdgeList(&buf2, edges); err != nil {
		t.Fatal(err)
	}
	if buf2.Len() == 0 {
		t.Fatalf("WriteEdgeList produced nothing")
	}
}

// blocksConfig pins the paper's structure, the edgeblock tree with its CAL
// mirror, whose generations and blocks the analysis and rebuild tests
// observe.
func blocksConfig() Config {
	cfg := DefaultConfig()
	cfg.Repr = ReprBlocks
	cfg.EnableCAL = true
	return cfg
}

func TestFacadeAnalysis(t *testing.T) {
	g := MustNew(blocksConfig())
	for i := uint64(0); i < 1000; i++ {
		g.InsertEdge(1, i, 1)
	}
	h := g.AnalyzeProbes()
	if h.MeanProbe() < 0 || h.MaxGeneration < 1 {
		t.Fatalf("histogram = %+v", h)
	}
	if len(g.DegreeHistogram()) == 0 {
		t.Fatalf("empty degree histogram")
	}
	if v := g.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestFacadeRebuiltAndTrace(t *testing.T) {
	g := MustNew(blocksConfig())
	for i := uint64(0); i < 2000; i++ {
		g.InsertEdge(1, i, 1)
	}
	for i := uint64(0); i < 1500; i++ {
		g.DeleteEdge(1, i)
	}
	rebuilt := g.Rebuilt()
	if rebuilt.NumEdges() != g.NumEdges() {
		t.Fatalf("rebuild changed edge count")
	}
	if rebuilt.OccupancyReport().LiveBlocks >= g.OccupancyReport().LiveBlocks {
		t.Fatalf("rebuild did not shrink")
	}

	eng := MustNewEngine(rebuilt, BFS(1), EngineOptions{Mode: Hybrid})
	res := eng.RunFromScratch()
	trace := res.FormatTrace()
	if !strings.Contains(trace, "bfs run, mode hybrid") || !strings.Contains(trace, "path") {
		t.Fatalf("trace malformed:\n%s", trace)
	}
}

func TestHybridThresholdIsStrict(t *testing.T) {
	// The paper's formula picks FP only when T > threshold; T == threshold
	// stays incremental. Construct T exactly equal: 1 active vertex, 50
	// edges, threshold 1/50.
	g := MustNew(DefaultConfig())
	for i := uint64(0); i < 50; i++ {
		g.InsertEdge(0, i+1, 1)
	}
	eng := MustNewEngine(g, BFS(0), EngineOptions{Mode: Hybrid, Threshold: 0.02})
	res := eng.RunFromScratch()
	first := res.Iterations[0]
	if first.PredictorT != 0.02 {
		t.Fatalf("T = %g, want 0.02", first.PredictorT)
	}
	if first.UsedFull {
		t.Fatalf("T == threshold must stay incremental (strict inequality)")
	}
	if math.Abs(DefaultThreshold-0.02) > 1e-12 {
		t.Fatalf("DefaultThreshold = %g", DefaultThreshold)
	}
}
