package stinger

import "testing"

// The parallel wrapper exposes the same engine-facing read surface as
// core.Parallel (GraphStore + ShardedStore shape); these tests pin it.

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
	total := 0
	for s := 0; s < par.NumShards(); s++ {
		par.ForEachActiveShardEdge(s, nil, func(src, dst uint64, w float32) bool {
			total++
			return true
		})
	}
	if uint64(total) != par.NumEdges() {
		t.Fatalf("shard streams cover %d edges, want %d", total, par.NumEdges())
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
