package core

import (
	"strings"
	"testing"
)

func TestAnalyzeProbesEmptyGraph(t *testing.T) {
	gt := MustNew(DefaultConfig())
	h := gt.AnalyzeProbes()
	if h.MeanProbe() != 0 || h.MeanGeneration() != 0 {
		t.Fatalf("empty graph has non-zero means: %+v", h)
	}
}

// blocksConfig is the paper's structure, as internal/bench's gtConfig pins
// it for the figures: the edgeblock tree with its CAL mirror, for tests of
// its mechanisms (RHH probes, generations and their counters).
func blocksConfig() Config {
	cfg := DefaultConfig()
	cfg.Repr = ReprBlocks
	cfg.EnableCAL = true
	return cfg
}

func TestAnalyzeProbesCountsAllEdges(t *testing.T) {
	gt := MustNew(blocksConfig())
	r := &testRand{s: 55}
	const n = 30000
	for i := 0; i < n; i++ {
		gt.InsertEdge(uint64(r.intn(50)), uint64(r.intn(5000)), 1)
	}
	h := gt.AnalyzeProbes()
	var total uint64
	for _, c := range h.ByGeneration {
		total += c
	}
	if total != gt.NumEdges() {
		t.Fatalf("generation histogram covers %d edges, want %d", total, gt.NumEdges())
	}
	total = 0
	for _, c := range h.ByProbe {
		total += c
	}
	if total != gt.NumEdges() {
		t.Fatalf("probe histogram covers %d edges, want %d", total, gt.NumEdges())
	}
	if h.MaxProbe >= gt.Config().SubblockSize {
		t.Fatalf("probe distance %d exceeds subblock size", h.MaxProbe)
	}
	if h.MaxGeneration == 0 {
		t.Fatalf("high-degree vertices must descend generations")
	}
	if h.MeanProbe() < 0 || h.MeanGeneration() < 0 {
		t.Fatalf("negative means")
	}
}

func TestProbeDistanceLogarithmicInDegree(t *testing.T) {
	// The paper's complexity claim: average descent depth for an n-degree
	// vertex grows like log(n), not n. Verify the mean generation grows by
	// O(1) when the degree grows 8x.
	meanGen := func(degree int) float64 {
		gt := MustNew(blocksConfig())
		for i := 0; i < degree; i++ {
			gt.InsertEdge(1, uint64(i), 1)
		}
		return gt.AnalyzeProbes().MeanGeneration()
	}
	g1 := meanGen(2000)
	g8 := meanGen(16000)
	if g8-g1 > 4 {
		t.Fatalf("mean generation grew too fast: %g -> %g for 8x degree", g1, g8)
	}
}

func TestDegreeHistogram(t *testing.T) {
	gt := MustNew(DefaultConfig())
	gt.InsertEdge(1, 2, 1) // degree 1 -> bucket 0
	for i := 0; i < 5; i++ {
		gt.InsertEdge(2, uint64(i), 1) // degree 5 -> bucket 2
	}
	h := gt.DegreeHistogram()
	if len(h) < 3 || h[0] != 1 || h[2] != 1 {
		t.Fatalf("degree histogram = %v", h)
	}
	var vertices uint64
	for _, c := range h {
		vertices += c
	}
	if vertices != 2 {
		t.Fatalf("histogram covers %d vertices", vertices)
	}
}

func TestCheckInvariantsHealthyUnderChurn(t *testing.T) {
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DeleteMode = mode
			gt := MustNew(cfg)
			r := &testRand{s: 808}
			for i := 0; i < 20000; i++ {
				src, dst := uint64(r.intn(60)), uint64(r.intn(600))
				if r.intn(3) == 0 {
					gt.DeleteEdge(src, dst)
				} else {
					gt.InsertEdge(src, dst, 1)
				}
			}
			if v := gt.CheckInvariants(); len(v) != 0 {
				t.Fatalf("invariant violations: %v", v)
			}
		})
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	gt := MustNew(blocksConfig())
	for i := 0; i < 100; i++ {
		gt.InsertEdge(1, uint64(i), 1)
	}
	// Corrupt a counter deliberately.
	gt.eba.occupancy[gt.topBlock[0]]++
	if v := gt.CheckInvariants(); len(v) == 0 {
		t.Fatalf("corrupted occupancy not detected")
	}
	gt.eba.occupancy[gt.topBlock[0]]--

	// Corrupt a block cell's CAL pointer.
	cells := gt.eba.blockCells(gt.topBlock[0])
	for i := range cells {
		if cells[i].state == cellOccupied {
			cells[i].calPtr ^= 1
			break
		}
	}
	if v := gt.CheckInvariants(); len(v) == 0 {
		t.Fatalf("corrupted CAL pointer not detected")
	}

	// An adaptive vertex outside its tier's degree window: a slice above
	// the promote point, a table at the demote point. The CAL is on for the
	// slice-pointer case below.
	adCfg := tinyThresholds(DefaultConfig())
	adCfg.EnableCAL = true
	ad := MustNew(adCfg)
	for i := 0; i < 6; i++ {
		ad.InsertEdge(1, uint64(i), 1)
	}
	for i := 0; i < 10; i++ {
		ad.InsertEdge(2, uint64(i), 1)
	}
	if v := ad.CheckInvariants(); len(v) != 0 {
		t.Fatalf("healthy adaptive graph: %v", v)
	}
	ad.cfg.CuckooPromoteDegree, ad.cfg.CuckooDemoteDegree = 5, 2
	if v := ad.CheckInvariants(); len(v) != 1 {
		t.Fatalf("slice above the promote point: %v", v)
	}
	ad.cfg.CuckooPromoteDegree, ad.cfg.CuckooDemoteDegree = 20, 10
	if v := ad.CheckInvariants(); len(v) != 1 {
		t.Fatalf("table at the demote point: %v", v)
	}
	ad.cfg = adCfg

	reported := func(what, want string) {
		t.Helper()
		for _, v := range ad.CheckInvariants() {
			if strings.Contains(v, want) {
				return
			}
		}
		t.Fatalf("%s not reported (want %q): %v", what, want, ad.CheckInvariants())
	}
	// A flipped occupancy bit in vertex 2's table.
	tab := ad.cont[1].cuckoo
	tab.occ[0] ^= 1
	reported("flipped mask bit", "cuckoo occupancy masks")
	tab.occ[0] ^= 1
	// A slice entry of vertex 1 whose CAL pointer names another slot.
	ad.cont[0].slice.entries[0].calPtr ^= 1
	reported("wrong slice calPtr", "container pointer broken")
}
