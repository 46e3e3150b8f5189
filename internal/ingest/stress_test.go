package ingest

// Concurrent stress suite: writer goroutines stream RMAT updates through
// the pipeline while reader goroutines hammer the sharded store's query
// surface. Run under `go test -race`; the assertions at the end pin the
// deterministic parts (the drained edge set is the union of the streams,
// independent of interleaving), while the race detector checks the rest.

import (
	"sync"
	"sync/atomic"
	"testing"

	"graphtinker/internal/rmat"
	"graphtinker/internal/testutil"
)

func rmatStream(t *testing.T, scale int, edgeFactor, seed uint64) []Update {
	t.Helper()
	es, err := rmat.Generate(rmat.Graph500Params(scale, edgeFactor, seed))
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Update, len(es))
	for i, e := range es {
		ops[i] = Insert(e.Src, e.Dst, e.Weight)
	}
	return ops
}

func TestStressWritersAndReaders(t *testing.T) {
	const writers, readers = 4, 4
	scale, edgeFactor := 13, uint64(8)
	if testing.Short() {
		scale = 11
	}

	streams := make([][]Update, writers)
	pairs := make(map[[2]uint64]struct{})
	for w := range streams {
		streams[w] = rmatStream(t, scale, edgeFactor, uint64(100+w))
		for _, op := range streams[w] {
			pairs[[2]uint64{op.Src, op.Dst}] = struct{}{}
		}
	}

	par := newParallel(t, 4)
	rec := NewRecorder()
	pl := MustNew(par, Options{MaxBatch: 2048, Recorder: rec})

	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(ops []Update) {
			defer writerWG.Done()
			for i := 0; i < len(ops); i += 331 {
				end := i + 331
				if end > len(ops) {
					end = len(ops)
				}
				if err := pl.PushBatch(ops[i:end]); err != nil {
					panic(err)
				}
			}
		}(streams[w])
	}

	for k := 0; k < readers; k++ {
		readerWG.Add(1)
		go func(k int) {
			defer readerWG.Done()
			r := &testutil.Rand{S: uint64(7 + k)}
			for !stop.Load() {
				src := uint64(r.Intn(1 << scale))
				_, _ = par.FindEdge(src, uint64(r.Intn(1<<scale)))
				par.ForEachOutEdge(src, func(dst uint64, w float32) bool { return true })
				_ = par.OutDegree(src)
				_ = par.Stats()
				_ = par.NumEdges()
				if r.Intn(8) == 0 {
					n := 0
					par.ForEachEdge(func(src, dst uint64, w float32) bool {
						n++
						return n < 10000 // bounded scan keeps readers hot, not hung
					})
				}
				_ = rec.Snapshot()
			}
		}(k)
	}

	writerWG.Wait()
	pl.Flush() // read-your-writes barrier while readers are still live
	var want uint64
	for _, s := range streams {
		want += uint64(len(s))
	}
	if got := pl.Totals(); got.Pushed != want {
		t.Fatalf("pushed %d, want %d", got.Pushed, want)
	}
	if got := par.NumEdges(); got != uint64(len(pairs)) {
		t.Fatalf("post-barrier store holds %d edges, streams contain %d distinct pairs", got, len(pairs))
	}
	stop.Store(true)
	readerWG.Wait()

	tot, err := pl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := par.NumEdges(); got != uint64(len(pairs)) {
		t.Fatalf("drained store holds %d edges, streams contain %d distinct pairs", got, len(pairs))
	}
	if tot.Inserted != uint64(len(pairs)) {
		t.Fatalf("inserted %d, want %d (each distinct pair is new exactly once)", tot.Inserted, len(pairs))
	}
	if snap := rec.Snapshot(); snap.QueueDepth != 0 || snap.BatchSize.Sum != want {
		t.Fatalf("recorder snapshot inconsistent after drain: depth=%d sum=%d want=%d",
			snap.QueueDepth, snap.BatchSize.Sum, want)
	}
}

// TestStressMixedOpsDisjointWriters drives interleaved inserts and deletes
// from writers owning disjoint source ranges, with readers live, and then
// requires exact oracle agreement — the strongest concurrent correctness
// statement the ordering model supports.
func TestStressMixedOpsDisjointWriters(t *testing.T) {
	const writers, readers = 4, 2
	perWriter := 40_000
	if testing.Short() {
		perWriter = 8_000
	}
	streams := make([][]Update, writers)
	for w := range streams {
		r := &testutil.Rand{S: uint64(31 + w)}
		streams[w] = randomStream(r, perWriter, w*4096, 512, 2048)
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
	pl := MustNew(par, Options{MaxBatch: 1024, MaxPending: 8192})
	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	for _, ops := range streams {
		writerWG.Add(1)
		go func(ops []Update) {
			defer writerWG.Done()
			for _, op := range ops {
				if err := pl.Push(op); err != nil {
					panic(err)
				}
			}
		}(ops)
	}
	for k := 0; k < readers; k++ {
		readerWG.Add(1)
		go func(k int) {
			defer readerWG.Done()
			r := &testutil.Rand{S: uint64(900 + k)}
			for !stop.Load() {
				src := uint64(r.Intn(writers * 4096))
				_, _ = par.FindEdge(src, uint64(r.Intn(2048)))
				_ = par.OutDegree(src)
				_ = par.Stats()
			}
		}(k)
	}
	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	if _, err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainstRef(t, par, ref)
}
