package stinger

import "testing"

// The parallel wrapper exposes the same engine-facing read surface as
// core.Parallel (GraphStore plus the split part walk); these tests pin it.

func TestParallelReadSurface(t *testing.T) {
	par, err := NewParallel(DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var batch []Edge
	for i := 0; i < 2000; i++ {
		batch = append(batch, Edge{Src: uint64(i % 100), Dst: uint64(i), Weight: 1})
	}
	par.InsertBatch(batch)

	if par.NumShards() != 3 {
		t.Fatalf("NumShards = %d", par.NumShards())
	}
	if id, ok := par.MaxVertexID(); !ok || id != 1999 {
		t.Fatalf("MaxVertexID = (%d,%v)", id, ok)
	}
	if par.OutDegree(0) != 20 {
		t.Fatalf("OutDegree(0) = %d", par.OutDegree(0))
	}
	if !par.SplitsEdgeWalk() {
		t.Fatalf("3 shards do not split the edge walk")
	}
	if one, _ := NewParallel(DefaultConfig(), 1); one.SplitsEdgeWalk() {
		t.Fatalf("one shard splits the edge walk")
	}
	seen := map[[2]uint64]int{}
	parts := par.NumShards()
	for part := 0; part < parts; part++ {
		par.ForEachActivePartEdge(part, parts, nil, func(src, dst uint64, w float32) bool {
			seen[[2]uint64{src, dst}]++
			return true
		})
	}
	if uint64(len(seen)) != par.NumEdges() {
		t.Fatalf("part walks cover %d edges, want %d", len(seen), par.NumEdges())
	}
	for e, times := range seen {
		if times != 1 {
			t.Fatalf("part walks visit edge %v %d times", e, times)
		}
	}
	// Part 0 of 2 walks shards 0 and 2; stopping on shard 0's last edge
	// must not go on into shard 2.
	last := int(par.Shard(0).NumEdges())
	visited := 0
	par.ForEachActivePartEdge(0, 2, nil, func(src, dst uint64, w float32) bool {
		visited++
		return visited < last
	})
	if last == 0 || visited != last {
		t.Fatalf("part walk stopped at shard 0's edge %d visited %d", last, visited)
	}
	n := 0
	par.ForEachEdge(func(src, dst uint64, w float32) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("ForEachEdge early stop visited %d", n)
	}
	var outs int
	par.ForEachOutEdge(0, func(dst uint64, w float32) bool {
		outs++
		return true
	})
	if outs != 20 {
		t.Fatalf("ForEachOutEdge(0) visited %d", outs)
	}
}

func TestParallelMaxVertexIDEmpty(t *testing.T) {
	par, _ := NewParallel(DefaultConfig(), 2)
	if _, ok := par.MaxVertexID(); ok {
		t.Fatalf("empty parallel reported vertices")
	}
}
