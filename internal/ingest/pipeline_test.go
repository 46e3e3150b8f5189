package ingest

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/testutil"
)

func newParallel(t testing.TB, shards int) *core.Parallel {
	t.Helper()
	p, err := core.NewParallel(core.DefaultConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineReadYourWritesAfterFlush(t *testing.T) {
	par := newParallel(t, 4)
	pl := MustNew(par, Options{MaxBatch: 64, FlushInterval: -1})
	for i := uint64(0); i < 1000; i++ {
		if err := pl.Push(Insert(i%100, i, float32(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	pl.Flush()
	if got := par.NumEdges(); got != 1000 {
		t.Fatalf("NumEdges after Flush = %d, want 1000", got)
	}
	for i := uint64(0); i < 1000; i++ {
		if w, ok := par.FindEdge(i%100, i); !ok || w != float32(i)+1 {
			t.Fatalf("FindEdge(%d,%d) = (%g,%v) after Flush", i%100, i, w, ok)
		}
	}
	tot, err := pl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Pushed != 1000 || tot.Inserted != 1000 || tot.Deleted != 0 {
		t.Fatalf("totals = %+v, want 1000 pushed/inserted", tot)
	}
}

func TestPipelinePreservesPerPairOpOrder(t *testing.T) {
	par := newParallel(t, 4)
	// One big buffer flush: insert/delete/insert for the same pair must
	// land in order, leaving the edge present with the last weight.
	pl := MustNew(par, Options{MaxBatch: 1 << 20, FlushInterval: -1})
	for pair := uint64(0); pair < 500; pair++ {
		mustPush(t, pl, Insert(pair, pair+1, 1))
		mustPush(t, pl, Delete(pair, pair+1))
		mustPush(t, pl, Insert(pair, pair+1, 7))
	}
	pl.Flush()
	for pair := uint64(0); pair < 500; pair++ {
		w, ok := par.FindEdge(pair, pair+1)
		if !ok || w != 7 {
			t.Fatalf("pair %d: got (%g,%v), want (7,true)", pair, w, ok)
		}
	}
	tot, _ := pl.Close()
	if tot.Inserted != 1000 || tot.Deleted != 500 {
		t.Fatalf("totals = %+v, want 1000 inserted / 500 deleted", tot)
	}
}

func TestPipelineTimerFlush(t *testing.T) {
	par := newParallel(t, 2)
	pl := MustNew(par, Options{MaxBatch: 1 << 20, FlushInterval: time.Millisecond})
	defer pl.Close()
	mustPush(t, pl, Insert(1, 2, 3))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := par.FindEdge(1, 2); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("time-triggered flush never made the edge visible")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipelineClosedPushFails(t *testing.T) {
	par := newParallel(t, 2)
	pl := MustNew(par, Options{})
	if _, err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Push(Insert(1, 2, 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	if _, err := pl.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v, want ErrClosed", err)
	}
	// Flush on a closed pipeline must not deadlock.
	pl.Flush()
}

// slowTarget is a single-shard Target whose applies wait for release,
// letting tests hold the pipeline's budget full deterministically.
type slowTarget struct {
	gate    chan struct{}
	mu      sync.Mutex
	applied int
}

func (s *slowTarget) NumShards() int { return 1 }
func (s *slowTarget) ApplyOps(ops []Update) (int, int) {
	<-s.gate
	s.mu.Lock()
	s.applied += len(ops)
	s.mu.Unlock()
	return len(ops), 0
}

func TestPipelineRejectBackpressure(t *testing.T) {
	st := &slowTarget{gate: make(chan struct{})}
	rec := NewRecorder()
	pl := MustNew(st, Options{MaxBatch: 4, MaxPending: 8, Policy: Reject, FlushInterval: -1, Recorder: rec})
	for i := 0; i < 8; i++ {
		mustPush(t, pl, Insert(uint64(i), 1, 1))
	}
	if err := pl.Push(Insert(99, 1, 1)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("push over budget: %v, want ErrBackpressure", err)
	}
	if got := rec.Rejected.Load(); got != 1 {
		t.Fatalf("Rejected counter = %d, want 1", got)
	}
	close(st.gate) // release the worker so Close can drain
	tot, err := pl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Pushed != 8 || tot.Inserted != 8 {
		t.Fatalf("totals = %+v, want 8 pushed/inserted", tot)
	}
}

func TestPipelineBlockBackpressure(t *testing.T) {
	st := &slowTarget{gate: make(chan struct{})}
	pl := MustNew(st, Options{MaxBatch: 4, MaxPending: 8, Policy: Block, FlushInterval: -1})
	for i := 0; i < 8; i++ {
		mustPush(t, pl, Insert(uint64(i), 1, 1))
	}
	unblocked := make(chan error, 1)
	go func() { unblocked <- pl.Push(Insert(99, 1, 1)) }()
	select {
	case err := <-unblocked:
		t.Fatalf("push over budget returned %v before the worker freed budget", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(st.gate)
	if err := <-unblocked; err != nil {
		t.Fatalf("blocked push failed after budget freed: %v", err)
	}
	tot, err := pl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Pushed != 9 {
		t.Fatalf("pushed = %d, want 9", tot.Pushed)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.applied != 9 {
		t.Fatalf("applied = %d, want 9", st.applied)
	}
}

func TestPipelineCloseReleasesBlockedPushers(t *testing.T) {
	st := &slowTarget{gate: make(chan struct{})}
	pl := MustNew(st, Options{MaxBatch: 2, MaxPending: 2, Policy: Block, FlushInterval: -1})
	mustPush(t, pl, Insert(1, 1, 1))
	mustPush(t, pl, Insert(2, 1, 1))
	errc := make(chan error, 1)
	go func() { errc <- pl.Push(Insert(3, 1, 1)) }()
	time.Sleep(20 * time.Millisecond)
	close(st.gate)
	if _, err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked pusher got %v, want nil or ErrClosed", err)
	}
}

func TestPipelineMetrics(t *testing.T) {
	par := newParallel(t, 4)
	rec := NewRecorder()
	pl := MustNew(par, Options{MaxBatch: 128, FlushInterval: -1, Recorder: rec})
	ops := make([]Update, 0, 10000)
	r := &testutil.Rand{S: 5}
	for i := 0; i < 10000; i++ {
		ops = append(ops, Insert(uint64(r.Intn(500)), uint64(r.Intn(2000)), 1))
	}
	if err := pl.PushBatch(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.Flushes == 0 {
		t.Fatal("no flushes recorded")
	}
	if snap.BatchSize.Count == 0 || snap.BatchSize.Sum != 10000 {
		t.Fatalf("batch-size histogram covers %d updates over %d batches, want sum 10000",
			snap.BatchSize.Sum, snap.BatchSize.Count)
	}
	if snap.FlushLatencyNs.Count != snap.BatchSize.Count {
		t.Fatalf("flush-latency count %d != batch count %d", snap.FlushLatencyNs.Count, snap.BatchSize.Count)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth after Close = %d, want 0", snap.QueueDepth)
	}
}

func TestPipelineRejectsZeroShardTarget(t *testing.T) {
	if _, err := New(badTarget{}, Options{}); err == nil {
		t.Fatal("expected error for zero-shard target")
	}
}

type badTarget struct{}

func (badTarget) NumShards() int               { return 0 }
func (badTarget) ApplyOps([]Update) (int, int) { return 0, 0 }

func mustPush(t *testing.T, pl *Pipeline, u Update) {
	t.Helper()
	if err := pl.Push(u); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineOwnsOneApplier pins the pipeline's fan-out: whatever the
// shard count, New starts one goroutine, the applier, which also runs the
// flush timer; a flush's shards run on the process's apply helper pool.
// Close and Abort both return the count to the baseline.
func TestPipelineOwnsOneApplier(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	settle := func(want int) int {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine()
	}
	ops := genUpdates(4096)
	for _, shards := range []int{1, 4, 8} {
		for _, abort := range []bool{false, true} {
			par := newParallel(t, shards)
			par.ApplyOps(ops) // the helper pool is the process's: start it first
			before := runtime.NumGoroutine()
			pl := MustNew(par, Options{MaxBatch: 512})
			if g := settle(before + 1); g != before+1 {
				t.Fatalf("%d shards: New started %d goroutines, want the applier alone", shards, g-before)
			}
			if err := pl.PushBatch(ops); err != nil {
				t.Fatal(err)
			}
			pl.Flush()
			if g := settle(before + 1); g != before+1 {
				t.Fatalf("%d shards: %d goroutines above the baseline after a flush, want 1", shards, g-before)
			}
			if abort {
				pl.Abort()
			} else if _, err := pl.Close(); err != nil {
				t.Fatal(err)
			}
			if g := settle(before); g != before {
				t.Fatalf("%d shards (abort %v): %d goroutines above the baseline after shutdown, want 0", shards, abort, g-before)
			}
		}
	}
}
