package core

import "testing"

func TestRebuiltCompactsTombstonedStructure(t *testing.T) {
	gt := MustNew(blocksConfig()) // delete-only
	ref := newRefGraph()
	r := &testRand{s: 99}
	for i := 0; i < 20000; i++ {
		src, dst := uint64(r.intn(30)), uint64(r.intn(3000))
		gt.InsertEdge(src, dst, 1)
		ref.insert(src, dst, 1)
	}
	// Delete two thirds.
	for i, e := range ref.edges() {
		if i%3 != 0 {
			gt.DeleteEdge(e.Src, e.Dst)
			ref.delete(e.Src, e.Dst)
		}
	}
	before := gt.OccupancyReport()
	rebuilt := gt.Rebuilt()
	after := rebuilt.OccupancyReport()

	if rebuilt.Stats() != (Stats{}) {
		t.Fatalf("rebuilt counters not reset")
	}
	checkEquivalence(t, rebuilt, ref)
	if after.Fill() <= before.Fill() {
		t.Fatalf("rebuild did not improve fill: %.3f -> %.3f", before.Fill(), after.Fill())
	}
	if after.LiveBlocks >= before.LiveBlocks {
		t.Fatalf("rebuild did not shrink blocks: %d -> %d", before.LiveBlocks, after.LiveBlocks)
	}
	if after.CALFill() < 0.999 {
		t.Fatalf("rebuilt CAL not dense: %.3f", after.CALFill())
	}
	if v := rebuilt.CheckInvariants(); len(v) != 0 {
		t.Fatalf("rebuilt invariants: %v", v)
	}
	// The original is untouched.
	checkEquivalence(t, gt, ref)
	// The raw id space survives even if the max-id vertex lost its edges.
	a, _ := gt.MaxVertexID()
	b, _ := rebuilt.MaxVertexID()
	if a != b {
		t.Fatalf("MaxVertexID changed: %d -> %d", a, b)
	}
}

func TestRebuiltEmptyGraph(t *testing.T) {
	gt := MustNew(DefaultConfig())
	rebuilt := gt.Rebuilt()
	if rebuilt.NumEdges() != 0 {
		t.Fatalf("empty rebuild has edges")
	}
	if _, ok := rebuilt.MaxVertexID(); ok {
		t.Fatalf("empty rebuild observed vertices")
	}
}

func TestRebuiltPreservesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageWidth = 16
	cfg.EnableCAL = false
	gt := MustNew(cfg)
	gt.InsertEdge(1, 2, 3)
	rebuilt := gt.Rebuilt()
	if rebuilt.Config() != cfg {
		t.Fatalf("config changed: %+v", rebuilt.Config())
	}
	if w, ok := rebuilt.FindEdge(1, 2); !ok || w != 3 {
		t.Fatalf("edge lost: (%g,%v)", w, ok)
	}
}
