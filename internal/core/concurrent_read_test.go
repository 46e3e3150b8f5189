package core

// The read-only iteration surface (ForEachEdge / ForEachOutEdge /
// ForEachSource / OutDegree) is documented safe for concurrent readers —
// the property the split engine's incremental phase relies on. This
// test hammers it under the race detector.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestConcurrentReaders(t *testing.T) {
	gt := MustNew(testConfig(t))
	r := &testRand{s: 17}
	for i := 0; i < 30000; i++ {
		gt.InsertEdge(uint64(r.intn(100)), uint64(r.intn(1000)), 1)
	}
	want := gt.NumEdges()

	var wg sync.WaitGroup
	const readers = 8
	errs := make(chan string, readers*2)
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				var n uint64
				gt.ForEachEdge(func(src, dst uint64, w float32) bool {
					n++
					return true
				})
				if n != want {
					errs <- "ForEachEdge undercounted"
					return
				}
				var deg uint64
				gt.ForEachSource(func(src uint64, d uint32) bool {
					if gt.OutDegree(src) != d {
						errs <- "OutDegree disagrees with ForEachSource"
						return false
					}
					var walked uint64
					gt.ForEachOutEdge(src, func(dst uint64, w float32) bool {
						walked++
						return true
					})
					if walked != uint64(d) {
						errs <- "ForEachOutEdge disagrees with degree"
						return false
					}
					deg += walked
					return true
				})
				if deg != want {
					errs <- "degree sum mismatch"
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentFindAndWalkReaders drives concurrent FindEdge and
// ForEachOutEdge readers against the read-only iteration surface — the
// -race regression for the atomic stats counters (FindEdge counts probe
// work, so before the counters went atomic two concurrent finds raced).
func TestConcurrentFindAndWalkReaders(t *testing.T) {
	gt := MustNew(testConfig(t))
	r := &testRand{s: 41}
	edges := make([]Edge, 0, 20000)
	for i := 0; i < 20000; i++ {
		edges = append(edges, Edge{uint64(r.intn(200)), uint64(r.intn(500)), 1})
	}
	gt.InsertBatch(edges)

	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(edges); i += 3 {
				e := edges[i]
				if _, ok := gt.FindEdge(e.Src, e.Dst); !ok {
					panic("edge vanished under concurrent finds")
				}
				var walked uint32
				gt.ForEachOutEdge(e.Src, func(dst uint64, w float32) bool {
					walked++
					return true
				})
				if walked != gt.OutDegree(e.Src) {
					panic("walk disagrees with degree under concurrency")
				}
				_ = gt.Stats() // snapshot races only if counters are non-atomic
			}
		}(k)
	}
	wg.Wait()
	if got := gt.Stats().Finds; got == 0 {
		t.Fatalf("Finds counter lost all increments")
	}
}

// TestParallelStatsSnapshotMidBatch snapshots per-shard counters while
// concurrent batch updates are in flight — the race-clean telemetry
// contract of the sharded wrapper.
func TestParallelStatsSnapshotMidBatch(t *testing.T) {
	p, err := NewParallel(testConfig(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	r := &testRand{s: 77}
	var batch []Edge
	for i := 0; i < 40000; i++ {
		batch = append(batch, Edge{uint64(r.intn(1000)), uint64(r.intn(1000)), 1})
	}
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Both reads are moving targets; correctness of the values is
			// checked after the batches land — here the race detector checks
			// that reading them mid-batch is safe.
			var merged Stats
			for _, s := range p.ShardStats() {
				merged.Add(s)
			}
			_ = p.Stats()
		}
	}()
	p.InsertBatch(batch)
	p.DeleteBatch(batch[:10000])
	close(stop)
	<-snapped
	if p.Stats().Deletes == 0 {
		t.Fatalf("deletes not counted")
	}
	var merged Stats
	for _, s := range p.ShardStats() {
		merged.Add(s)
	}
	if merged != p.Stats() {
		t.Fatalf("quiescent ShardStats sum %+v != Stats %+v", merged, p.Stats())
	}
}

// TestParallelTornReadDifferential is the seqlock's differential oracle:
// a writer applies a sequence of tagged, disjoint batches (every edge of
// batch k carries weight k+1) while per-shard readers scan continuously.
// Because a shard scan runs on one version-pinned replica, every observed
// state must be some exact point in the applied sequence — so for each
// batch the scan sees either all of its edges routed to the shard or none
// (no half-applied batch), and during the insert phase the set of fully
// visible batches must be a prefix of the sequence (during the delete
// phase, a suffix). Any torn read trips one of the three assertions.
func TestParallelTornReadDifferential(t *testing.T) {
	const (
		shards    = 4
		batches   = 24
		batchSize = 400
	)
	p, err := NewParallel(testConfig(t), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Disjoint tagged batches plus the per-shard per-batch oracle counts.
	all := make([][]Edge, batches)
	want := make([][]uint64, batches)
	for k := range all {
		want[k] = make([]uint64, shards)
		for j := 0; j < batchSize; j++ {
			e := Edge{
				Src:    uint64((k*batchSize + j) % 97),
				Dst:    uint64(k*batchSize + j + 1000), // globally unique => batches disjoint
				Weight: float32(k + 1),
			}
			all[k] = append(all[k], e)
			want[k][p.ShardOf(e.Src)]++
		}
	}

	var phase atomic.Int32 // 1: inserting in order, 2: deleting in order
	phase.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(msg string) {
		if failed.CompareAndSwap(false, true) {
			t.Error(msg)
		}
	}
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			counts := make([]uint64, batches)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range counts {
					counts[i] = 0
				}
				ph1 := phase.Load()
				p.ForEachActiveShardEdge(s, nil, func(src, dst uint64, w float32) bool {
					k := int(w) - 1
					if k < 0 || k >= batches {
						fail("scan observed an edge with an unknown batch tag")
						return false
					}
					counts[k]++
					return true
				})
				ph2 := phase.Load()
				prevFull := true
				seenLive := false
				for k := 0; k < batches; k++ {
					full := counts[k] == want[k][s]
					if !full && counts[k] != 0 {
						fail(fmt.Sprintf("shard %d: torn read: batch %d visible with %d of %d edges",
							s, k, counts[k], want[k][s]))
						return
					}
					// Insert phase (stable across the scan): visible batches
					// form a prefix of the applied order.
					if ph1 == 1 && ph2 == 1 && full && !prevFull {
						fail(fmt.Sprintf("shard %d: batch %d visible before batch %d (non-prefix state)", s, k, k-1))
						return
					}
					// Delete phase: deletions also apply in order, so live
					// batches form a suffix — a hole means a scan straddled
					// a batch boundary it must not see.
					if ph1 == 2 && seenLive && counts[k] == 0 && want[k][s] != 0 {
						fail(fmt.Sprintf("shard %d: batch %d gone while an earlier batch is still live (non-suffix state)", s, k))
						return
					}
					prevFull = full
					if counts[k] != 0 {
						seenLive = true
					}
				}
			}
		}(s)
	}

	for k := 0; k < batches; k++ {
		p.InsertBatch(all[k])
	}
	phase.Store(2)
	for k := 0; k < batches; k++ {
		p.DeleteBatch(all[k])
	}
	close(stop)
	wg.Wait()
	if n := p.NumEdges(); n != 0 {
		t.Fatalf("differential end state: %d edges left, want 0", n)
	}
}

func TestConcurrentReadersOnMirrored(t *testing.T) {
	m := MustNewMirrored(testConfig(t))
	r := &testRand{s: 23}
	for i := 0; i < 10000; i++ {
		m.InsertEdge(uint64(r.intn(50)), uint64(r.intn(50)), 1)
	}
	var wg sync.WaitGroup
	for k := 0; k < 6; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out, in uint64
			m.ForEachEdge(func(src, dst uint64, w float32) bool { out++; return true })
			m.ForEachInSource(func(v uint64, d uint32) bool {
				m.ForEachInEdge(v, func(src uint64, w float32) bool { in++; return true })
				return true
			})
			if out != in {
				panic("forward/reverse edge counts diverged under concurrency")
			}
		}()
	}
	wg.Wait()
}
