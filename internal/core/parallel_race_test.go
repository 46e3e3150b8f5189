package core

// Concurrent stress for the sharded store's seqlock contract — mutually
// exclusive per-shard writers, lock-free readers: mutators (InsertBatch /
// DeleteBatch / single-edge ops / ApplyShard) from several goroutines
// while readers exercise the full query surface. Run under `go test
// -race`.

import (
	"sync"
	"sync/atomic"
	"testing"

	"graphtinker/internal/testutil"
)

func TestParallelConcurrentWritersAndReaders(t *testing.T) {
	p, err := NewParallel(testConfig(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers = 4, 4
	perWriter := 6000
	if testing.Short() {
		perWriter = 1500
	}

	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup

	// Each writer owns a disjoint source range, so the final edge set is
	// deterministic; the race detector owns the rest.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			r := &testRand{s: uint64(50 + w)}
			base := uint64(w * 100000)
			var batch []Edge
			for i := 0; i < perWriter; i++ {
				e := Edge{Src: base + uint64(r.intn(300)), Dst: uint64(r.intn(1000)), Weight: 1}
				switch r.intn(10) {
				case 0:
					p.InsertEdge(e.Src, e.Dst, e.Weight)
				case 1:
					p.DeleteEdge(e.Src, e.Dst)
				case 2:
					s := p.ShardOf(e.Src)
					p.ApplyShard(s, []EdgeOp{{Edge: e}})
				default:
					batch = append(batch, e)
					if len(batch) == 512 {
						p.InsertBatch(batch)
						if r.intn(4) == 0 {
							p.DeleteBatch(batch[:64])
						}
						batch = batch[:0]
					}
				}
			}
			p.InsertBatch(batch)
		}(w)
	}

	for k := 0; k < readers; k++ {
		readerWG.Add(1)
		go func(k int) {
			defer readerWG.Done()
			r := &testRand{s: uint64(77 + k)}
			for !stop.Load() {
				src := uint64(r.intn(writers*100000 + 1000))
				p.FindEdge(src, uint64(r.intn(1000)))
				p.OutDegree(src)
				p.ForEachOutEdge(src, func(dst uint64, w float32) bool { return true })
				p.NumEdges()
				p.MaxVertexID()
				p.Stats()
				if r.intn(16) == 0 {
					n := 0
					p.ForEachEdge(func(src, dst uint64, w float32) bool {
						n++
						return n < 5000
					})
				}
				if r.intn(16) == 0 {
					p.ForEachActiveShardEdge(r.intn(p.NumShards()), nil, func(src, dst uint64, w float32) bool {
						return false // touch-and-stop keeps the scan cheap
					})
				}
			}
		}(k)
	}

	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()

	// Quiescent sanity: every shard's invariants hold and the partition
	// invariant was never violated (each edge lives on its owning shard).
	for s := 0; s < p.Shards(); s++ {
		if v := p.Shard(s).CheckInvariants(); len(v) != 0 {
			t.Fatalf("shard %d invariants: %v", s, v)
		}
		p.Shard(s).ForEachEdge(func(src, dst uint64, w float32) bool {
			if p.ShardOf(src) != s {
				t.Fatalf("edge (%d,%d) found on shard %d, owned by %d", src, dst, s, p.ShardOf(src))
			}
			return true
		})
	}
}

// TestParallelApplyShardMatchesOracle pins ApplyShard's ordered-apply
// semantics (sequentially) against the shared oracle.
func TestParallelApplyShardMatchesOracle(t *testing.T) {
	p, err := NewParallel(testConfig(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := testutil.NewRefGraph()
	r := &testRand{s: 7}
	var wantIns, wantDel int
	parts := make([][]EdgeOp, p.Shards())
	for i := 0; i < 30000; i++ {
		src, dst := uint64(r.intn(200)), uint64(r.intn(500))
		var op EdgeOp
		if r.intn(10) < 7 {
			op = InsertOp(src, dst, r.float32()+1)
			if ref.Insert(src, dst, op.Weight) {
				wantIns++
			}
		} else {
			op = DeleteOp(src, dst)
			if ref.Delete(src, dst) {
				wantDel++
			}
		}
		parts[p.ShardOf(src)] = append(parts[p.ShardOf(src)], op)
	}
	var gotIns, gotDel int
	for s, ops := range parts {
		i, d := p.ApplyShard(s, ops)
		gotIns += i
		gotDel += d
	}
	if gotIns != wantIns || gotDel != wantDel {
		t.Fatalf("ApplyShard effects %d/%d, oracle %d/%d", gotIns, gotDel, wantIns, wantDel)
	}
	testutil.CheckAgainstRef(t, p, ref)
}

// TestParallelReadSurfaceSatisfiesTestutilStore is a compile-time-ish pin:
// the sharded store keeps satisfying the shared oracle-check interface.
func TestParallelReadSurfaceSatisfiesTestutilStore(t *testing.T) {
	p, err := NewParallel(testConfig(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	var _ testutil.Store = p
	ref := testutil.NewRefGraph()
	p.InsertEdge(1, 2, 3)
	ref.Insert(1, 2, 3)
	testutil.CheckAgainstRef(t, p, ref)
}
