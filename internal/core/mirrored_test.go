package core

import "testing"

func TestMirroredKeepsDirectionsInSync(t *testing.T) {
	m := MustNewMirrored(DefaultConfig())
	ref := newRefGraph()
	r := &testRand{s: 321}
	for i := 0; i < 15000; i++ {
		src, dst := uint64(r.intn(80)), uint64(r.intn(80))
		if r.intn(4) == 0 {
			if m.DeleteEdge(src, dst) != ref.delete(src, dst) {
				t.Fatalf("delete diverged at op %d", i)
			}
		} else {
			w := r.float32()
			if m.InsertEdge(src, dst, w) != ref.insert(src, dst, w) {
				t.Fatalf("insert diverged at op %d", i)
			}
		}
	}
	// Forward direction equals the reference.
	checkEquivalence(t, m.Forward(), ref)
	// Reverse direction is the exact transpose.
	type key struct{ s, d uint64 }
	fwd := make(map[key]float32)
	m.ForEachEdge(func(src, dst uint64, w float32) bool {
		fwd[key{src, dst}] = w
		return true
	})
	seen := 0
	m.Reverse().ForEachEdge(func(dst, src uint64, w float32) bool {
		if got, ok := fwd[key{src, dst}]; !ok || got != w {
			t.Fatalf("reverse edge (%d<-%d,%g) not the transpose (fwd has %g,%v)", dst, src, w, got, ok)
		}
		seen++
		return true
	})
	if uint64(seen) != m.NumEdges() {
		t.Fatalf("reverse holds %d edges, want %d", seen, m.NumEdges())
	}
	// Degrees cross-check: in-degree via reverse equals per-vertex count.
	inDeg := make(map[uint64]uint32)
	m.ForEachEdge(func(src, dst uint64, w float32) bool {
		inDeg[dst]++
		return true
	})
	for v, want := range inDeg {
		if m.InDegree(v) != want {
			t.Fatalf("InDegree(%d) = %d, want %d", v, m.InDegree(v), want)
		}
	}
}

func TestMirroredBatchOpsAndAccessors(t *testing.T) {
	m := MustNewMirrored(DefaultConfig())
	n := m.InsertBatch([]Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 3, Weight: 1}})
	if n != 2 {
		t.Fatalf("InsertBatch new = %d", n)
	}
	if w, ok := m.FindEdge(1, 2); !ok || w != 2 {
		t.Fatalf("FindEdge = (%g,%v)", w, ok)
	}
	if id, ok := m.MaxVertexID(); !ok || id != 3 {
		t.Fatalf("MaxVertexID = (%d,%v)", id, ok)
	}
	if m.OutDegree(1) != 1 || m.InDegree(2) != 1 {
		t.Fatalf("degrees wrong")
	}
	var sources []uint64
	m.ForEachInSource(func(v uint64, deg uint32) bool {
		sources = append(sources, v)
		return true
	})
	if len(sources) != 2 {
		t.Fatalf("in-sources = %v", sources)
	}
	var outs []uint64
	m.ForEachOutEdge(1, func(dst uint64, w float32) bool {
		outs = append(outs, dst)
		return true
	})
	if len(outs) != 1 || outs[0] != 2 {
		t.Fatalf("out-edges = %v", outs)
	}
	if removed := m.DeleteBatch([]Edge{{Src: 1, Dst: 2}, {Src: 9, Dst: 9}}); removed != 1 {
		t.Fatalf("DeleteBatch = %d", removed)
	}
	if m.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", m.NumEdges())
	}
}

func TestNewMirroredRejectsInvalidConfig(t *testing.T) {
	if _, err := NewMirrored(Config{}); err == nil {
		t.Fatalf("invalid config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNewMirrored did not panic")
		}
	}()
	MustNewMirrored(Config{})
}

func TestParallelShardSurface(t *testing.T) {
	p, err := NewParallel(DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 3 {
		t.Fatalf("NumShards = %d", p.NumShards())
	}
	for i := 0; i < 300; i++ {
		p.InsertEdge(uint64(i), uint64(i+1), 1)
	}
	total := 0
	for s := 0; s < p.NumShards(); s++ {
		if p.Shard(s) == nil {
			t.Fatalf("Shard(%d) nil", s)
		}
		p.ForEachActiveShardEdge(s, nil, func(src, dst uint64, w float32) bool {
			total++
			return true
		})
	}
	if uint64(total) != p.NumEdges() {
		t.Fatalf("shard streams cover %d edges, want %d", total, p.NumEdges())
	}
}

func TestEdgeString(t *testing.T) {
	got := Edge{Src: 1, Dst: 2, Weight: 0.5}.String()
	if got != "(1->2 w=0.5)" {
		t.Fatalf("String = %q", got)
	}
}

func TestPruneEmptySubtree(t *testing.T) {
	// Whitebox: build a block chain whose child subtree is entirely empty
	// (possible transiently in compact mode when an upper block keeps a
	// child pointer while the descendants drained via another path), then
	// force a compactHole through it.
	cfg := DefaultConfig()
	cfg.DeleteMode = DeleteAndCompact
	cfg.Repr = ReprBlocks // whitebox test of the block-format compactor
	gt := MustNew(cfg)
	gt.InsertEdge(1, 2, 1) // allocates the top block
	top := gt.topBlock[0]
	// Hand-build: child of subblock 0 with its own empty child.
	child := gt.eba.allocBlock(top, 0)
	gt.eba.setChild(top, 0, child)
	grand := gt.eba.allocBlock(child, 3)
	gt.eba.setChild(child, 3, grand)
	live := gt.eba.liveBlocks
	// A hole in (top, 0) finds no occupied descendant: the subtree must be
	// pruned and both blocks freed.
	gt.compactHole(top, 0, 0)
	if gt.eba.childOf(top, 0) != noBlock {
		t.Fatalf("child pointer not cleared")
	}
	if gt.eba.liveBlocks != live-2 {
		t.Fatalf("liveBlocks = %d, want %d", gt.eba.liveBlocks, live-2)
	}
	if gt.Stats().BlocksFreed < 2 {
		t.Fatalf("BlocksFreed = %d", gt.Stats().BlocksFreed)
	}
	// The structure still behaves.
	if w, ok := gt.FindEdge(1, 2); !ok || w != 1 {
		t.Fatalf("edge lost: (%g,%v)", w, ok)
	}
}
