package algorithms

import (
	"math"
	"testing"
	"testing/quick"

	"graphtinker/internal/core"
	"graphtinker/internal/engine"
	"graphtinker/internal/rmat"
)

func allModes() []engine.Mode {
	return []engine.Mode{engine.FullProcessing, engine.IncrementalProcessing, engine.Hybrid}
}

// randomEdges draws a deterministic random directed graph.
func randomEdges(n, m int, seed uint64, symmetric bool) []engine.Edge {
	p := rmat.Params{
		Scale:    bitsFor(n),
		NumEdges: uint64(m),
		A:        0.45, B: 0.22, C: 0.22,
		Seed:      seed,
		MaxWeight: 9,
	}
	es, err := rmat.Generate(p)
	if err != nil {
		panic(err)
	}
	var out []engine.Edge
	for _, e := range es {
		// Weight is a pure function of the endpoints so that duplicate
		// tuples in the stream never change a stored weight: monotone
		// incremental programs (like the paper's) cannot repair weight
		// increases, only additions.
		w := edgeWeight(e.Src, e.Dst)
		out = append(out, engine.Edge{Src: e.Src, Dst: e.Dst, Weight: w})
		if symmetric {
			out = append(out, engine.Edge{Src: e.Dst, Dst: e.Src, Weight: edgeWeight(e.Dst, e.Src)})
		}
	}
	return out
}

func edgeWeight(src, dst uint64) float32 {
	x := src*0x9e3779b97f4a7c15 ^ dst
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float32(x%9) + 1
}

func bitsFor(n int) int {
	s := 1
	for (1 << uint(s)) < n {
		s++
	}
	return s
}

func maxID(edges []engine.Edge) uint64 {
	var m uint64
	for _, e := range edges {
		if e.Src > m {
			m = e.Src
		}
		if e.Dst > m {
			m = e.Dst
		}
	}
	return m
}

// runBatched loads edges into a fresh GraphTinker in batches, running the
// engine after every batch, and returns the engine for inspection.
func runBatched(t *testing.T, prog engine.Program, edges []engine.Edge, mode engine.Mode, batchSize int) *engine.Engine {
	t.Helper()
	store := core.MustNew(core.DefaultConfig())
	eng := engine.MustNew(store, prog, engine.Options{Mode: mode})
	for start := 0; start < len(edges); start += batchSize {
		end := start + batchSize
		if end > len(edges) {
			end = len(edges)
		}
		batch := edges[start:end]
		store.InsertBatch(batch)
		res := eng.RunAfterBatch(batch)
		if !res.Converged {
			t.Fatalf("run did not converge after batch at %d", start)
		}
	}
	return eng
}

func TestBFSAllModesMatchReference(t *testing.T) {
	edges := randomEdges(256, 2000, 11, false)
	n := maxID(edges) + 1
	want := ReferenceBFS(n, edges, 0)
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			eng := runBatched(t, BFS(0), edges, mode, 137)
			for v := uint64(0); v < n; v++ {
				if eng.Value(v) != want[v] {
					t.Fatalf("mode %v: bfs[%d] = %g, want %g", mode, v, eng.Value(v), want[v])
				}
			}
		})
	}
}

func TestSSSPAllModesMatchReference(t *testing.T) {
	edges := randomEdges(256, 2000, 13, false)
	n := maxID(edges) + 1
	want := ReferenceSSSP(n, CanonicalizeEdges(edges), 1)
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			eng := runBatched(t, SSSP(1), edges, mode, 101)
			for v := uint64(0); v < n; v++ {
				if eng.Value(v) != want[v] {
					t.Fatalf("mode %v: sssp[%d] = %g, want %g", mode, v, eng.Value(v), want[v])
				}
			}
		})
	}
}

func TestCCAllModesMatchReference(t *testing.T) {
	edges := randomEdges(256, 1500, 17, true) // symmetric: true WCC semantics
	n := maxID(edges) + 1
	want := ReferenceCC(n, edges)
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			eng := runBatched(t, CC(), edges, mode, 97)
			for v := uint64(0); v < n; v++ {
				if eng.Value(v) != want[v] {
					t.Fatalf("mode %v: cc[%d] = %g, want %g", mode, v, eng.Value(v), want[v])
				}
			}
		})
	}
}

func TestCCDirectedFixedPoint(t *testing.T) {
	// On a directed (asymmetric) edge list, the engine's CC must still
	// match the directed min-label-propagation fixed point.
	edges := randomEdges(128, 800, 23, false)
	n := maxID(edges) + 1
	want := ReferenceCC(n, edges)
	eng := runBatched(t, CC(), edges, engine.Hybrid, 73)
	for v := uint64(0); v < n; v++ {
		if eng.Value(v) != want[v] {
			t.Fatalf("cc[%d] = %g, want %g", v, eng.Value(v), want[v])
		}
	}
}

func TestBFSUnreachableStaysUnreached(t *testing.T) {
	edges := []engine.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 5, Dst: 6, Weight: 1}}
	eng := runBatched(t, BFS(0), edges, engine.FullProcessing, 10)
	if !math.IsInf(eng.Value(5), 1) || !math.IsInf(eng.Value(6), 1) {
		t.Fatalf("disconnected component reached: %g %g", eng.Value(5), eng.Value(6))
	}
	if eng.Value(1) != 1 {
		t.Fatalf("bfs[1] = %g", eng.Value(1))
	}
}

func TestBFSRootAppearsInLaterBatch(t *testing.T) {
	// The root vertex does not exist until the second batch; incremental
	// runs must pick it up once it appears.
	store := core.MustNew(core.DefaultConfig())
	eng := engine.MustNew(store, BFS(50), engine.Options{Mode: engine.IncrementalProcessing})
	b1 := []engine.Edge{{Src: 0, Dst: 1, Weight: 1}}
	store.InsertBatch(b1)
	eng.RunAfterBatch(b1)
	if !math.IsInf(eng.Value(1), 1) {
		t.Fatalf("vertex 1 reached before root exists")
	}
	b2 := []engine.Edge{{Src: 50, Dst: 0, Weight: 1}}
	store.InsertBatch(b2)
	eng.RunAfterBatch(b2)
	if eng.Value(50) != 0 || eng.Value(0) != 1 || eng.Value(1) != 2 {
		t.Fatalf("distances after root appears: %g %g %g", eng.Value(50), eng.Value(0), eng.Value(1))
	}
}

func TestSSSPWeightsBeatHopCount(t *testing.T) {
	// A 2-hop light path must beat a 1-hop heavy edge.
	edges := []engine.Edge{
		{Src: 0, Dst: 2, Weight: 10},
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
	}
	eng := runBatched(t, SSSP(0), edges, engine.Hybrid, 3)
	if eng.Value(2) != 2 {
		t.Fatalf("sssp[2] = %g, want 2", eng.Value(2))
	}
}

func TestStaticAfterDeletionsMatchesReference(t *testing.T) {
	// Deletions invalidate monotone incremental state; the harness runs
	// from-scratch recomputation (Fig. 15's FP mode). Verify that is exact.
	edges := randomEdges(128, 1200, 29, false)
	store := core.MustNew(core.DefaultConfig())
	store.InsertBatch(edges)
	// Delete a third of the edges.
	stored := store.Edges()
	var kept []engine.Edge
	for i, e := range stored {
		if i%3 == 0 {
			store.DeleteEdge(e.Src, e.Dst)
		} else {
			kept = append(kept, e)
		}
	}
	eng := engine.MustNew(store, BFS(0), engine.Options{Mode: engine.Hybrid})
	res := eng.RunFromScratch()
	if !res.Converged {
		t.Fatalf("did not converge")
	}
	want := ReferenceBFS(eng.NumVertices(), kept, 0)
	for v := uint64(0); v < eng.NumVertices(); v++ {
		if eng.Value(v) != want[v] {
			t.Fatalf("bfs[%d] = %g, want %g", v, eng.Value(v), want[v])
		}
	}
}

func TestReferenceBFSRootOutOfRange(t *testing.T) {
	d := ReferenceBFS(4, nil, 99)
	for _, v := range d {
		if !math.IsInf(v, 1) {
			t.Fatalf("out-of-range root reached something")
		}
	}
	d2 := ReferenceSSSP(4, nil, 99)
	for _, v := range d2 {
		if !math.IsInf(v, 1) {
			t.Fatalf("out-of-range root reached something (sssp)")
		}
	}
}

func TestHighestDegreeRoots(t *testing.T) {
	edges := []engine.Edge{
		{Src: 1, Dst: 2, Weight: 1}, {Src: 1, Dst: 3, Weight: 1}, {Src: 1, Dst: 4, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 2, Dst: 4, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1},
	}
	roots := HighestDegreeRoots(5, edges, 2)
	if len(roots) != 2 || roots[0] != 1 || roots[1] != 2 {
		t.Fatalf("roots = %v, want [1 2]", roots)
	}
	// k larger than the number of sources clips.
	all := HighestDegreeRoots(5, edges, 10)
	if len(all) != 3 {
		t.Fatalf("clipped roots = %v", all)
	}
	if got := HighestDegreeRoots(5, nil, 3); len(got) != 0 {
		t.Fatalf("empty edge list returned roots %v", got)
	}
}

func TestQuickIncrementalEqualsStaticBFS(t *testing.T) {
	// Property: for random graphs and random batch splits, incremental BFS
	// equals static BFS on every vertex.
	prop := func(seed uint64, batchRaw uint8) bool {
		edges := randomEdges(64, 400, seed, false)
		batch := int(batchRaw)%97 + 3
		n := maxID(edges) + 1
		want := ReferenceBFS(n, edges, 0)
		store := core.MustNew(core.DefaultConfig())
		eng := engine.MustNew(store, BFS(0), engine.Options{Mode: engine.IncrementalProcessing})
		for start := 0; start < len(edges); start += batch {
			end := start + batch
			if end > len(edges) {
				end = len(edges)
			}
			store.InsertBatch(edges[start:end])
			eng.RunAfterBatch(edges[start:end])
		}
		for v := uint64(0); v < n; v++ {
			if eng.Value(v) != want[v] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHybridEqualsStaticCC(t *testing.T) {
	prop := func(seed uint64, batchRaw uint8) bool {
		edges := randomEdges(64, 300, seed, true)
		batch := int(batchRaw)%77 + 3
		n := maxID(edges) + 1
		want := ReferenceCC(n, edges)
		store := core.MustNew(core.DefaultConfig())
		eng := engine.MustNew(store, CC(), engine.Options{Mode: engine.Hybrid})
		for start := 0; start < len(edges); start += batch {
			end := start + batch
			if end > len(edges) {
				end = len(edges)
			}
			store.InsertBatch(edges[start:end])
			eng.RunAfterBatch(edges[start:end])
		}
		for v := uint64(0); v < n; v++ {
			if eng.Value(v) != want[v] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMinReduceMatchesMathMin pins that the shipped min reducer keeps
// math.Min's answers on NaN and signed zeros. The one pair where they part
// is NaN against -Inf (math.Min answers -Inf, the builtin NaN); no message
// of these programs is ever -Inf or NaN.
func TestMinReduceMatchesMathMin(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{math.NaN(), negZero, 0, math.Inf(1), math.Inf(-1), 1, -1}
	for _, a := range vals {
		for _, b := range vals {
			if math.IsNaN(a) && math.IsInf(b, -1) || math.IsInf(a, -1) && math.IsNaN(b) {
				continue
			}
			got, want := minReduce(a, b), math.Min(a, b)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("minReduce(%g, %g) = %g, math.Min gives %g", a, b, got, want)
			}
		}
	}
}
