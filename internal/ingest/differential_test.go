package ingest

// Differential tests: a randomized interleaved insert/delete stream pushed
// through the pipeline must leave the drained core.Parallel in exactly the
// state a sequential replay produces — checked edge-for-edge against the
// shared single-threaded oracle. The pipeline applies flushes in order and
// ApplyOps keeps each shard's ops in order, and an edge's final state depends only on the relative
// order of its own (src,dst) ops, so equality holds for a single pusher
// and for concurrent pushers owning disjoint source ranges.

import (
	"sync"
	"testing"

	"graphtinker/internal/core"
	"graphtinker/internal/testutil"
)

// randomStream builds an interleaved insert/delete op stream biased toward
// inserts, reusing a bounded id space so deletes hit live edges often.
func randomStream(r *testutil.Rand, n int, srcBase, srcRange, dstRange int) []Update {
	ops := make([]Update, 0, n)
	for i := 0; i < n; i++ {
		src := uint64(srcBase + r.Intn(srcRange))
		dst := uint64(r.Intn(dstRange))
		if r.Intn(10) < 7 {
			ops = append(ops, Insert(src, dst, r.Float32()+1))
		} else {
			ops = append(ops, Delete(src, dst))
		}
	}
	return ops
}

func TestPipelineMatchesOracleSequentialStream(t *testing.T) {
	const n = 120_000 // acceptance floor is 100k interleaved ops
	r := &testutil.Rand{S: 2024}
	ops := randomStream(r, n, 0, 400, 1200)

	ref := testutil.NewRefGraph()
	var refInserted, refDeleted uint64
	for _, op := range ops {
		if op.Del {
			if ref.Delete(op.Src, op.Dst) {
				refDeleted++
			}
		} else {
			if ref.Insert(op.Src, op.Dst, op.Weight) {
				refInserted++
			}
		}
	}

	par := newParallel(t, 4)
	pl := MustNew(par, Options{MaxBatch: 1024, FlushInterval: -1})
	for i := 0; i < len(ops); i += 257 { // uneven chunks exercise re-buffering
		end := i + 257
		if end > len(ops) {
			end = len(ops)
		}
		if err := pl.PushBatch(ops[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	tot, err := pl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Pushed != n {
		t.Fatalf("pushed %d, want %d", tot.Pushed, n)
	}
	// Effect counts match the sequential replay exactly: each op's outcome
	// depends only on the prior state of its own (src,dst) pair, whose
	// order the pipeline preserves.
	if tot.Inserted != refInserted || tot.Deleted != refDeleted {
		t.Fatalf("effects = %d inserted / %d deleted, oracle %d / %d",
			tot.Inserted, tot.Deleted, refInserted, refDeleted)
	}
	testutil.CheckAgainstRef(t, par, ref)
	for s := 0; s < par.Shards(); s++ {
		if v := par.Shard(s).CheckInvariants(); len(v) != 0 {
			t.Fatalf("shard %d invariants violated after drain: %v", s, v)
		}
	}
}

func TestPipelineMatchesOracleConcurrentWriters(t *testing.T) {
	// Four pushers own disjoint source ranges, so every (src,dst) pair's op
	// order is fixed by one goroutine and the final state is deterministic
	// regardless of cross-writer interleaving.
	const writers = 4
	const perWriter = 30_000
	streams := make([][]Update, writers)
	for w := range streams {
		r := &testutil.Rand{S: uint64(1000 + w)}
		streams[w] = randomStream(r, perWriter, w*1000, 300, 900)
	}

	ref := testutil.NewRefGraph()
	for _, ops := range streams {
		for _, op := range ops {
			if op.Del {
				ref.Delete(op.Src, op.Dst)
			} else {
				ref.Insert(op.Src, op.Dst, op.Weight)
			}
		}
	}

	par := newParallel(t, 4)
	pl := MustNew(par, Options{MaxBatch: 512, MaxPending: 4096})
	var wg sync.WaitGroup
	for _, ops := range streams {
		wg.Add(1)
		go func(ops []Update) {
			defer wg.Done()
			for i := 0; i < len(ops); i += 101 {
				end := i + 101
				if end > len(ops) {
					end = len(ops)
				}
				if err := pl.PushBatch(ops[i:end]); err != nil {
					panic(err)
				}
			}
		}(ops)
	}
	wg.Wait()
	if _, err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainstRef(t, par, ref)
}

// TestSynchronousParallelMatchesOracle pins the same oracle agreement for
// the synchronous batch path, so the streaming and batch write paths are
// held to one semantic standard.
func TestSynchronousParallelMatchesOracle(t *testing.T) {
	r := &testutil.Rand{S: 99}
	ref := testutil.NewRefGraph()
	par := newParallel(t, 3)
	for batch := 0; batch < 20; batch++ {
		var ins, del []core.Edge
		for i := 0; i < 2000; i++ {
			e := core.Edge{Src: uint64(r.Intn(250)), Dst: uint64(r.Intn(800)), Weight: r.Float32() + 1}
			if r.Intn(10) < 7 {
				ins = append(ins, e)
			} else {
				del = append(del, e)
			}
		}
		for _, e := range ins {
			ref.Insert(e.Src, e.Dst, e.Weight)
		}
		par.InsertBatch(ins)
		for _, e := range del {
			ref.Delete(e.Src, e.Dst)
		}
		par.DeleteBatch(del)
	}
	testutil.CheckAgainstRef(t, par, ref)
}
