package engine

// The sequential engine must run unchanged over every GraphStore variant
// the repository ships: single GraphTinker (covered throughout), STINGER
// (engine_test.go), the sharded Parallel wrapper and the Mirrored pair.

import (
	"testing"

	"graphtinker/internal/core"
	"graphtinker/internal/stinger"
)

func TestSequentialEngineOverParallelStore(t *testing.T) {
	edges := randomTestEdges(2000, 128, 77)
	par, err := core.NewParallel(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	par.InsertBatch(edges)
	single := core.MustNew(core.DefaultConfig())
	single.InsertBatch(edges)

	for _, mode := range []Mode{FullProcessing, IncrementalProcessing, Hybrid} {
		pe := MustNew(par, minProgram(), Options{Mode: mode})
		se := MustNew(single, minProgram(), Options{Mode: mode})
		pe.RunFromScratch()
		se.RunFromScratch()
		for v := uint64(0); v < se.NumVertices(); v++ {
			if pe.Value(v) != se.Value(v) {
				t.Fatalf("mode %v: val[%d] differs over parallel store: %g vs %g",
					mode, v, pe.Value(v), se.Value(v))
			}
		}
	}
}

func TestSequentialEngineOverMirroredStore(t *testing.T) {
	edges := randomTestEdges(1500, 96, 88)
	m := core.MustNewMirrored(core.DefaultConfig())
	m.InsertBatch(edges)
	single := core.MustNew(core.DefaultConfig())
	single.InsertBatch(edges)

	me := MustNew(m, minProgram(), Options{Mode: Hybrid})
	se := MustNew(single, minProgram(), Options{Mode: Hybrid})
	me.RunFromScratch()
	se.RunFromScratch()
	for v := uint64(0); v < se.NumVertices(); v++ {
		if me.Value(v) != se.Value(v) {
			t.Fatalf("val[%d] differs over mirrored store: %g vs %g", v, me.Value(v), se.Value(v))
		}
	}
}

func TestEngineOverEveryStoreAgreesOnEdgesLoadedSemantics(t *testing.T) {
	// A full-processing iteration loads every live edge from a store that
	// streams them all (STINGER, a GraphTinker with the CAL on) and exactly
	// the active sources' out-edges from one that skips the rest (a default
	// GraphTinker, Parallel or Mirrored). Values agree on every store.
	edges := append([]Edge{te(0, 1), te(1, 2), te(2, 3)}, randomTestEdges(1500, 96, 91)...)
	calCfg := core.DefaultConfig()
	calCfg.EnableCAL = true
	stores := map[string]GraphStore{}
	g := core.MustNew(core.DefaultConfig())
	g.InsertBatch(edges)
	stores["graphtinker"] = g
	gc := core.MustNew(calCfg)
	gc.InsertBatch(edges)
	stores["graphtinker+cal"] = gc
	st := stinger.MustNew(stinger.DefaultConfig())
	for _, e := range edges {
		st.InsertEdge(e.Src, e.Dst, e.Weight)
	}
	stores["stinger"] = st
	par, _ := core.NewParallel(core.DefaultConfig(), 2)
	par.InsertBatch(edges)
	stores["parallel"] = par
	m := core.MustNewMirrored(core.DefaultConfig())
	m.InsertBatch(edges)
	stores["mirrored"] = m
	streamsAll := map[string]bool{"graphtinker+cal": true, "stinger": true}

	want := MustNew(g, minProgram(), Options{Mode: FullProcessing})
	want.RunFromScratch()
	for name, store := range stores {
		e := MustNew(store, minProgram(), Options{Mode: FullProcessing})
		res := e.RunFromScratch()
		skipped := false
		for _, it := range res.Iterations {
			wantLoaded := it.EdgesProcessed
			if streamsAll[name] {
				wantLoaded = store.NumEdges()
			}
			if it.EdgesLoaded != wantLoaded {
				t.Fatalf("%s: iteration %d loaded %d edges, want %d", name, it.Index, it.EdgesLoaded, wantLoaded)
			}
			skipped = skipped || it.EdgesLoaded < store.NumEdges()
		}
		if !skipped && !streamsAll[name] {
			t.Fatalf("%s: no iteration skipped an inactive source", name)
		}
		for v := uint64(0); v < want.NumVertices(); v++ {
			if e.Value(v) != want.Value(v) {
				t.Fatalf("%s: val[%d] = %g, want %g", name, v, e.Value(v), want.Value(v))
			}
		}
	}
}
