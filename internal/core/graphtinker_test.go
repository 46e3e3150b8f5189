package core

import (
	"runtime"
	"testing"

	"graphtinker/internal/rmat"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero page width", func(c *Config) { c.PageWidth = 0 }},
		{"non power of two page width", func(c *Config) { c.PageWidth = 48 }},
		{"zero subblock", func(c *Config) { c.SubblockSize = 0 }},
		{"non power of two subblock", func(c *Config) { c.SubblockSize = 6 }},
		{"zero workblock", func(c *Config) { c.WorkblockSize = 0 }},
		{"non power of two workblock", func(c *Config) { c.WorkblockSize = 3 }},
		{"page width below subblock", func(c *Config) { c.PageWidth = 4; c.SubblockSize = 8; c.WorkblockSize = 4 }},
		{"subblock below workblock", func(c *Config) { c.SubblockSize = 4; c.WorkblockSize = 8 }},
		{"zero CAL group", func(c *Config) { c.EnableCAL, c.CALGroupSize = true, 0 }},
		{"zero CAL block", func(c *Config) { c.EnableCAL, c.CALBlockSize = true, 0 }},
		{"huge page width", func(c *Config) { c.PageWidth = 1 << 40 }},
		{"huge CAL block", func(c *Config) { c.EnableCAL, c.CALBlockSize = true, 0x3030303030303030 }},
		{"negative vertex capacity", func(c *Config) { c.InitialVertexCapacity = -1 }},
		{"bogus delete mode", func(c *Config) { c.DeleteMode = DeleteMode(99) }},
		{"demote at promote", func(c *Config) { c.CuckooPromoteDegree = 64; c.CuckooDemoteDegree = 64 }},
		{"demote above promote", func(c *Config) { c.CuckooPromoteDegree = 64; c.CuckooDemoteDegree = 100 }},
		{"negative demote", func(c *Config) { c.CuckooDemoteDegree = -1 }},
		{"negative promote", func(c *Config) { c.CuckooPromoteDegree = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("expected validation error")
			}
			if _, err := New(cfg); err == nil {
				t.Fatalf("New accepted invalid config")
			}
		})
	}
}

func TestConfigCALSizesIgnoredWhenCALDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableCAL = false
	cfg.CALGroupSize = 0
	cfg.CALBlockSize = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("CAL sizes should not be validated when CAL is off: %v", err)
	}
}

func TestDeleteModeString(t *testing.T) {
	if DeleteOnly.String() != "delete-only" {
		t.Fatalf("DeleteOnly.String() = %q", DeleteOnly.String())
	}
	if DeleteAndCompact.String() != "delete-and-compact" {
		t.Fatalf("DeleteAndCompact.String() = %q", DeleteAndCompact.String())
	}
	if DeleteMode(7).String() != "DeleteMode(7)" {
		t.Fatalf("unknown mode string = %q", DeleteMode(7).String())
	}
}

func TestMustNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestInsertAndFindSingleEdge(t *testing.T) {
	gt := MustNew(DefaultConfig())
	if !gt.InsertEdge(1, 2, 3.5) {
		t.Fatalf("first insert should report new")
	}
	w, ok := gt.FindEdge(1, 2)
	if !ok || w != 3.5 {
		t.Fatalf("FindEdge = (%g,%v), want (3.5,true)", w, ok)
	}
	if gt.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", gt.NumEdges())
	}
	if gt.OutDegree(1) != 1 {
		t.Fatalf("OutDegree(1) = %d, want 1", gt.OutDegree(1))
	}
	if gt.OutDegree(2) != 0 {
		t.Fatalf("OutDegree(2) = %d, want 0", gt.OutDegree(2))
	}
	if _, ok := gt.FindEdge(2, 1); ok {
		t.Fatalf("reverse edge should be absent")
	}
	if _, ok := gt.FindEdge(9, 9); ok {
		t.Fatalf("unknown vertices should be absent")
	}
}

func TestDuplicateInsertUpdatesWeight(t *testing.T) {
	gt := MustNew(DefaultConfig())
	gt.InsertEdge(5, 7, 1)
	if gt.InsertEdge(5, 7, 9) {
		t.Fatalf("duplicate insert should report update, not new")
	}
	if gt.NumEdges() != 1 {
		t.Fatalf("duplicate insert must not grow the edge count")
	}
	w, _ := gt.FindEdge(5, 7)
	if w != 9 {
		t.Fatalf("weight = %g, want 9", w)
	}
	st := gt.Stats()
	if st.Inserts != 1 || st.Updates != 1 {
		t.Fatalf("stats = %+v, want 1 insert + 1 update", st)
	}
}

func TestSelfLoop(t *testing.T) {
	gt := MustNew(DefaultConfig())
	if !gt.InsertEdge(3, 3, 2) {
		t.Fatalf("self loop insert failed")
	}
	if w, ok := gt.FindEdge(3, 3); !ok || w != 2 {
		t.Fatalf("self loop lookup = (%g,%v)", w, ok)
	}
	if !gt.DeleteEdge(3, 3) {
		t.Fatalf("self loop delete failed")
	}
	if gt.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after delete", gt.NumEdges())
	}
}

func TestHighDegreeVertexBranchesOut(t *testing.T) {
	gt := MustNew(blocksConfig())
	ref := newRefGraph()
	const degree = 5000
	for i := 0; i < degree; i++ {
		dst := uint64(i * 7)
		gt.InsertEdge(42, dst, float32(i))
		ref.insert(42, dst, float32(i))
	}
	if gt.OutDegree(42) != degree {
		t.Fatalf("OutDegree = %d, want %d", gt.OutDegree(42), degree)
	}
	st := gt.Stats()
	if st.Branches == 0 {
		t.Fatalf("a %d-degree vertex must branch out (PageWidth=64)", degree)
	}
	if st.MaxGeneration == 0 {
		t.Fatalf("expected descent beyond generation 0")
	}
	checkEquivalence(t, gt, ref)
}

func TestSparseVertexIDsWithSGH(t *testing.T) {
	// Block representation pinned: the one-top-parent-per-source claim
	// below is about the SGH-densified main region of the block format.
	cfg := DefaultConfig()
	cfg.Repr = ReprBlocks
	gt := MustNew(cfg)
	ref := newRefGraph()
	// The paper's motivating example: source ids 34 and 22789 should not be
	// 22755 slots apart in the main region.
	ids := []uint64{34, 22789, 1 << 40, 1<<63 - 1, 0}
	for i, src := range ids {
		gt.InsertEdge(src, uint64(i), 1)
		ref.insert(src, uint64(i), 1)
	}
	if got := gt.NonEmptySources(); got != len(ids) {
		t.Fatalf("NonEmptySources = %d, want %d", got, len(ids))
	}
	// SGH keeps the main region dense: only one block per source allocated.
	if live := gt.OccupancyReport().LiveBlocks; live != len(ids) {
		t.Fatalf("LiveBlocks = %d, want %d (one top-parent per source)", live, len(ids))
	}
	checkEquivalence(t, gt, ref)
}

func TestSGHDisabledIndexesByRawID(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableSGH = false
	gt := MustNew(cfg)
	ref := newRefGraph()
	for _, src := range []uint64{0, 5, 100, 1000} {
		gt.InsertEdge(src, src+1, 1)
		ref.insert(src, src+1, 1)
	}
	checkEquivalence(t, gt, ref)
	if got := gt.NonEmptySources(); got != 4 {
		t.Fatalf("NonEmptySources = %d, want 4", got)
	}
	// Without SGH the main-region table spans the raw id space.
	if len(gt.topBlock) < 1001 {
		t.Fatalf("raw-indexed main region should span max raw id; len=%d", len(gt.topBlock))
	}
}

func TestCALDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableCAL = false
	gt := MustNew(cfg)
	ref := newRefGraph()
	r := &testRand{s: 7}
	for i := 0; i < 2000; i++ {
		src, dst := uint64(r.intn(50)), uint64(r.intn(200))
		w := r.float32()
		gt.InsertEdge(src, dst, w)
		ref.insert(src, dst, w)
	}
	checkEquivalence(t, gt, ref)
	if gt.Stats().CALAppends != 0 {
		t.Fatalf("CAL disabled but CALAppends = %d", gt.Stats().CALAppends)
	}
}

func TestInsertBatchCountsNewEdges(t *testing.T) {
	gt := MustNew(DefaultConfig())
	batch := []Edge{{1, 2, 1}, {1, 3, 1}, {1, 2, 5}, {2, 1, 1}}
	if got := gt.InsertBatch(batch); got != 3 {
		t.Fatalf("InsertBatch new count = %d, want 3", got)
	}
	if gt.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", gt.NumEdges())
	}
	if w, _ := gt.FindEdge(1, 2); w != 5 {
		t.Fatalf("duplicate in batch should update weight; got %g", w)
	}
}

func TestRandomInsertEquivalence(t *testing.T) {
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DeleteMode = mode
			gt := MustNew(cfg)
			ref := newRefGraph()
			r := &testRand{s: 99}
			for i := 0; i < 20000; i++ {
				src, dst := uint64(r.intn(300)), uint64(r.intn(300))
				w := r.float32()
				gotNew := gt.InsertEdge(src, dst, w)
				wantNew := ref.insert(src, dst, w)
				if gotNew != wantNew {
					t.Fatalf("op %d: InsertEdge new=%v, reference says %v", i, gotNew, wantNew)
				}
			}
			checkEquivalence(t, gt, ref)
		})
	}
}

func TestRandomMixedOpsEquivalence(t *testing.T) {
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DeleteMode = mode
			gt := MustNew(cfg)
			ref := newRefGraph()
			r := &testRand{s: 1234}
			for i := 0; i < 30000; i++ {
				src, dst := uint64(r.intn(120)), uint64(r.intn(120))
				switch r.intn(3) {
				case 0, 1:
					w := r.float32()
					if got, want := gt.InsertEdge(src, dst, w), ref.insert(src, dst, w); got != want {
						t.Fatalf("op %d insert: got %v want %v", i, got, want)
					}
				case 2:
					if got, want := gt.DeleteEdge(src, dst), ref.delete(src, dst); got != want {
						t.Fatalf("op %d delete(%d,%d): got %v want %v", i, src, dst, got, want)
					}
				}
			}
			checkEquivalence(t, gt, ref)
		})
	}
}

func TestSmallGeometries(t *testing.T) {
	geoms := []struct{ pw, sb, wb int }{
		{8, 8, 4},   // single subblock per block (PAGEWIDTH 8 of Fig. 19)
		{16, 8, 4},  // Fig. 17 smallest
		{256, 8, 4}, // Fig. 17 largest
		{64, 4, 4},  // subblock == workblock
		{64, 64, 4}, // one subblock spanning the block
		{8, 4, 1},   // single-cell workblocks
	}
	for _, g := range geoms {
		cfg := DefaultConfig()
		cfg.PageWidth, cfg.SubblockSize, cfg.WorkblockSize = g.pw, g.sb, g.wb
		gt, err := New(cfg)
		if err != nil {
			t.Fatalf("geometry %+v rejected: %v", g, err)
		}
		ref := newRefGraph()
		r := &testRand{s: uint64(g.pw*1000 + g.sb*10 + g.wb)}
		for i := 0; i < 5000; i++ {
			src, dst := uint64(r.intn(40)), uint64(r.intn(500))
			if r.intn(4) == 0 {
				gt.DeleteEdge(src, dst)
				ref.delete(src, dst)
			} else {
				w := r.float32()
				gt.InsertEdge(src, dst, w)
				ref.insert(src, dst, w)
			}
		}
		checkEquivalence(t, gt, ref)
	}
}

func TestMaxVertexIDTracksBothEndpoints(t *testing.T) {
	gt := MustNew(DefaultConfig())
	if _, ok := gt.MaxVertexID(); ok {
		t.Fatalf("empty instance should report no vertices")
	}
	gt.InsertEdge(3, 900, 1)
	if id, ok := gt.MaxVertexID(); !ok || id != 900 {
		t.Fatalf("MaxVertexID = (%d,%v), want (900,true)", id, ok)
	}
	gt.InsertEdge(1200, 4, 1)
	if id, _ := gt.MaxVertexID(); id != 1200 {
		t.Fatalf("MaxVertexID = %d, want 1200", id)
	}
}

func TestVertexValueRoundTrip(t *testing.T) {
	gt := MustNew(DefaultConfig())
	if gt.SetVertexValue(1, 4.5) {
		t.Fatalf("SetVertexValue should fail before the vertex exists")
	}
	gt.InsertEdge(1, 2, 1)
	if !gt.SetVertexValue(1, 4.5) {
		t.Fatalf("SetVertexValue failed for existing source")
	}
	if v, ok := gt.VertexValue(1); !ok || v != 4.5 {
		t.Fatalf("VertexValue = (%g,%v)", v, ok)
	}
	if _, ok := gt.VertexValue(2); ok {
		t.Fatalf("pure-sink vertex should own no property slot")
	}
}

func TestForEachSourceSkipsEmptied(t *testing.T) {
	gt := MustNew(DefaultConfig())
	gt.InsertEdge(10, 1, 1)
	gt.InsertEdge(20, 1, 1)
	gt.DeleteEdge(10, 1)
	var seen []uint64
	gt.ForEachSource(func(src uint64, deg uint32) bool {
		seen = append(seen, src)
		if deg == 0 {
			t.Fatalf("ForEachSource yielded zero-degree vertex %d", src)
		}
		return true
	})
	if len(seen) != 1 || seen[0] != 20 {
		t.Fatalf("ForEachSource = %v, want [20]", seen)
	}
}

func TestEarlyStopIteration(t *testing.T) {
	calCfg := DefaultConfig()
	calCfg.EnableCAL = true // the CAL stream first
	gt := MustNew(calCfg)
	for i := 0; i < 100; i++ {
		gt.InsertEdge(uint64(i%5), uint64(i), 1)
	}
	count := 0
	gt.ForEachEdge(func(src, dst uint64, w float32) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("ForEachEdge visited %d edges after early stop, want 10", count)
	}
	count = 0
	gt.ForEachOutEdge(0, func(dst uint64, w float32) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("ForEachOutEdge visited %d edges after early stop, want 1", count)
	}

	// Early stop must also work on the non-CAL scan path.
	cfg := DefaultConfig()
	cfg.EnableCAL = false
	gt2 := MustNew(cfg)
	for i := 0; i < 100; i++ {
		gt2.InsertEdge(uint64(i%5), uint64(i), 1)
	}
	count = 0
	gt2.ForEachEdge(func(src, dst uint64, w float32) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("non-CAL ForEachEdge visited %d edges after early stop, want 10", count)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	gt := MustNew(blocksConfig())
	for i := 0; i < 100; i++ {
		gt.InsertEdge(1, uint64(i), 1)
	}
	st := gt.Stats()
	if st.Inserts != 100 {
		t.Fatalf("Inserts = %d, want 100", st.Inserts)
	}
	if st.WorkblocksRetrieved == 0 || st.CellsInspected == 0 {
		t.Fatalf("probe counters did not accumulate: %+v", st)
	}
	if st.BlocksAllocated == 0 {
		t.Fatalf("BlocksAllocated = 0")
	}
	gt.ResetStats()
	if gt.Stats() != (Stats{}) {
		t.Fatalf("ResetStats left %+v", gt.Stats())
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Inserts: 1, MaxGeneration: 2, RHHSwaps: 3}
	b := Stats{Inserts: 10, MaxGeneration: 1, RHHSwaps: 4}
	a.Add(b)
	if a.Inserts != 11 || a.RHHSwaps != 7 {
		t.Fatalf("Add mis-summed: %+v", a)
	}
	if a.MaxGeneration != 2 {
		t.Fatalf("Add should keep the max generation, got %d", a.MaxGeneration)
	}
}

func TestMemoryFootprintGrows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableCAL = true // every component, the mirror included
	gt := MustNew(cfg)
	before := gt.Memory().Total()
	for i := 0; i < 10000; i++ {
		gt.InsertEdge(uint64(i%100), uint64(i), 1)
	}
	after := gt.Memory()
	if after.Total() <= before {
		t.Fatalf("memory footprint did not grow: %d -> %d", before, after.Total())
	}
	if after.EdgeblockArrayBytes == 0 || after.CALBytes == 0 || after.SGHBytes == 0 || after.VertexPropsBytes == 0 {
		t.Fatalf("all components should be accounted: %+v", after)
	}
}

// TestMemoryTracksHeap holds Memory() to the heap an instance actually
// occupies: after a fixed RMAT load under each representation, its total
// is within 10% of the HeapAlloc growth the load caused.
func TestMemoryTracksHeap(t *testing.T) {
	edges, err := rmat.Generate(rmat.Graph500Params(14, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, repr := range []Representation{ReprAdaptive, ReprSlice, ReprBlocks, ReprCuckoo} {
		t.Run(repr.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Repr = repr
			base := heap()
			g := MustNew(cfg)
			for _, e := range edges {
				g.InsertEdge(e.Src, e.Dst, e.Weight)
			}
			grown := float64(heap() - base)
			counted := float64(g.Memory().Total())
			t.Logf("%s: Memory %.1f B/edge, heap %.1f B/edge", repr, counted/float64(g.NumEdges()), grown/float64(g.NumEdges()))
			if counted < 0.9*grown || counted > 1.1*grown {
				t.Fatalf("Memory().Total() = %.0f B, heap grew %.0f B (%+.1f%%)", counted, grown, 100*(counted/grown-1))
			}
		})
	}
}

func TestOccupancyReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableCAL = true
	gt := MustNew(cfg)
	for i := 0; i < 1000; i++ {
		gt.InsertEdge(uint64(i%10), uint64(i), 1)
	}
	o := gt.OccupancyReport()
	if o.LiveEdges != 1000 {
		t.Fatalf("LiveEdges = %d", o.LiveEdges)
	}
	if o.Fill() <= 0 || o.Fill() > 1 {
		t.Fatalf("Fill = %g out of range", o.Fill())
	}
	if o.CALFill() <= 0.99 {
		t.Fatalf("insert-only CAL should be fully dense; CALFill = %g", o.CALFill())
	}
	var zero Occupancy
	if zero.Fill() != 0 || zero.CALFill() != 0 {
		t.Fatalf("zero occupancy should report 0 fills")
	}
}

func TestRHHSwapsHappenUnderPressure(t *testing.T) {
	gt := MustNew(blocksConfig())
	// Many edges of one vertex force subblock collisions and RHH swaps.
	for i := 0; i < 4000; i++ {
		gt.InsertEdge(7, uint64(i), 1)
	}
	if gt.Stats().RHHSwaps == 0 {
		t.Fatalf("expected Robin Hood displacements under load")
	}
}

func TestRHHProbeInvariant(t *testing.T) {
	// Every occupied cell's recorded probe distance must equal its actual
	// displacement from its home slot within its subblock (mod subblock).
	gt := MustNew(DefaultConfig())
	r := &testRand{s: 31}
	for i := 0; i < 30000; i++ {
		gt.InsertEdge(uint64(r.intn(30)), uint64(r.intn(3000)), 1)
	}
	s := gt.geo.subblockSize
	for b := 0; b < gt.eba.numBlocks; b++ {
		cells := gt.eba.blockCells(int32(b))
		for i, c := range cells {
			if c.state != cellOccupied {
				continue
			}
			slotInSub := i & gt.geo.subblockMask
			home := gt.homeSlotFor(c.dst)
			wantProbe := (slotInSub - home + s) & gt.geo.subblockMask
			if int(c.probe) != wantProbe {
				t.Fatalf("block %d cell %d: probe %d, want %d (home %d)", b, i, c.probe, wantProbe, home)
			}
		}
	}
}

func TestFindPathConsistentAfterEvictions(t *testing.T) {
	// Eviction cascades push resident edges into child edgeblocks; every
	// edge must remain findable along its tree-hash path.
	gt := MustNew(DefaultConfig())
	const n = 50000
	for i := 0; i < n; i++ {
		gt.InsertEdge(1, uint64(i), float32(i))
	}
	for i := 0; i < n; i++ {
		w, ok := gt.FindEdge(1, uint64(i))
		if !ok {
			t.Fatalf("edge to %d lost after evictions", i)
		}
		if w != float32(i) {
			t.Fatalf("edge to %d has weight %g, want %d", i, w, i)
		}
	}
}
