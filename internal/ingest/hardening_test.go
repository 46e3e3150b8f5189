package ingest

// Fault-tolerance regression tests: Close idempotency under concurrency,
// concurrent Flush+Close, panic containment (a contained apply panic
// degrades the pipeline while barriers keep completing), bounded
// retries against the ingest/apply failpoint, WAL-degraded shedding, and
// the WAL-is-a-prefix-of-the-stream wiring the recovery path relies on.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/faultinject"
	"graphtinker/internal/wal"
)

// fakeTarget is an instrumented Target: src%shards routing, per-shard op
// capture, and an optional hook invoked before counting (panic/block
// injection point).
type fakeTarget struct {
	shards  int
	applyFn func(shard int, ops []Update)

	mu      sync.Mutex
	applied [][]Update
}

func newFakeTarget(shards int) *fakeTarget {
	return &fakeTarget{shards: shards, applied: make([][]Update, shards)}
}

func (f *fakeTarget) NumShards() int { return f.shards }

// ApplyOps partitions ops by src%shards and applies the shards in order,
// each through the hook first.
func (f *fakeTarget) ApplyOps(ops []Update) (int, int) {
	parts := make([][]Update, f.shards)
	for _, op := range ops {
		s := int(op.Src % uint64(f.shards))
		parts[s] = append(parts[s], op)
	}
	for shard, part := range parts {
		if len(part) == 0 {
			continue
		}
		if f.applyFn != nil {
			f.applyFn(shard, part)
		}
		f.mu.Lock()
		f.applied[shard] = append(f.applied[shard], part...)
		f.mu.Unlock()
	}
	ins, del := 0, 0
	for _, op := range ops {
		if op.Del {
			del++
		} else {
			ins++
		}
	}
	return ins, del
}

func (f *fakeTarget) appliedCount(shard int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.applied[shard])
}

func TestPipelineCloseIdempotentConcurrent(t *testing.T) {
	tgt := newFakeTarget(4)
	pl := MustNew(tgt, Options{MaxBatch: 32, FlushInterval: -1})
	for i := uint64(0); i < 500; i++ {
		mustPush(t, pl, Insert(i, i+1, 1))
	}
	const closers = 8
	totals := make([]Totals, closers)
	errs := make([]error, closers)
	var wg sync.WaitGroup
	wg.Add(closers)
	for i := 0; i < closers; i++ {
		go func(i int) {
			defer wg.Done()
			totals[i], errs[i] = pl.Close()
		}(i)
	}
	wg.Wait()
	nilErrs := 0
	for i := 0; i < closers; i++ {
		if errs[i] == nil {
			nilErrs++
		} else if !errors.Is(errs[i], ErrClosed) {
			t.Fatalf("closer %d: err = %v, want nil or ErrClosed", i, errs[i])
		}
		// Every caller — first or not — must see the fully drained totals,
		// not a snapshot taken mid-shutdown.
		if totals[i].Pushed != 500 || totals[i].Inserted != 500 {
			t.Fatalf("closer %d: totals = %+v, want 500 pushed/inserted", i, totals[i])
		}
	}
	if nilErrs != 1 {
		t.Fatalf("%d closers got a nil error, want exactly 1", nilErrs)
	}
	if err := pl.Push(Insert(1, 2, 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after Close = %v, want ErrClosed", err)
	}
	if err := pl.PushBatch([]Update{Insert(1, 2, 3)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("PushBatch after Close = %v, want ErrClosed", err)
	}
}

func TestPipelineConcurrentFlushAndClose(t *testing.T) {
	// Flushes racing Close must neither deadlock nor panic, and Close must
	// still drain everything admitted before it. Run several rounds to give
	// the race detector surface.
	for round := 0; round < 20; round++ {
		tgt := newFakeTarget(3)
		pl := MustNew(tgt, Options{MaxBatch: 16, FlushInterval: -1})
		for i := uint64(0); i < 200; i++ {
			mustPush(t, pl, Insert(i, i+1, 1))
		}
		var wg sync.WaitGroup
		for f := 0; f < 4; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pl.Flush()
			}()
		}
		tot, err := pl.Close()
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: Close = %v", round, err)
		}
		if tot.Inserted != 200 {
			t.Fatalf("round %d: inserted %d, want 200", round, tot.Inserted)
		}
	}
}

func TestPipelinePanicContainment(t *testing.T) {
	tgt := newFakeTarget(4)
	tgt.applyFn = func(shard int, ops []Update) {
		if shard == 0 {
			panic("poisoned shard")
		}
	}
	pl := MustNew(tgt, Options{MaxBatch: 1 << 20, FlushInterval: -1})
	// 100 ops per shard: shard 0 keys are multiples of 4.
	for i := uint64(0); i < 400; i++ {
		mustPush(t, pl, Insert(i, i+1, 1))
	}
	// The barrier must complete even though the apply panicked.
	err := pl.FlushSync()
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("FlushSync over a panicking shard = %v, want ErrDegraded", err)
	}
	tot, _ := pl.Close()
	if tot.Panics == 0 {
		t.Fatalf("totals = %+v, want contained panics > 0", tot)
	}
	// A contained panic degrades the whole pipeline: the flush that
	// panicked is dropped whole, and every shard counts as degraded.
	if tot.DegradedShards != 4 {
		t.Fatalf("degraded shards = %d, want all 4", tot.DegradedShards)
	}
	if tot.Dropped != 400 {
		t.Fatalf("dropped = %d, want all 400 ops", tot.Dropped)
	}
	if tot.Inserted != 0 {
		t.Fatalf("inserted = %d, want 0 from a dropped flush", tot.Inserted)
	}
}

func TestPipelineApplyRetriesTransientFault(t *testing.T) {
	defer faultinject.Reset()
	tgt := newFakeTarget(2)
	rec := NewRecorder()
	pl := MustNew(tgt, Options{
		MaxBatch: 1 << 20, FlushInterval: -1,
		MaxRetries: 4, RetryBase: 100 * time.Microsecond, Recorder: rec,
	})
	// Two transient failures, then applies succeed: nothing may be lost.
	if err := faultinject.Set("ingest/apply", "error*2"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		mustPush(t, pl, Insert(i, i+1, 1))
	}
	if err := pl.FlushSync(); err != nil {
		t.Fatalf("FlushSync = %v, want transparent retry", err)
	}
	tot, err := pl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tot.Inserted != 100 || tot.Dropped != 0 || tot.DegradedShards != 0 {
		t.Fatalf("totals = %+v, want 100 inserted, nothing dropped", tot)
	}
	if rec.Retries.Load() != 2 {
		t.Fatalf("retries = %d, want 2", rec.Retries.Load())
	}
}

func TestPipelineApplyExhaustedRetriesDegrade(t *testing.T) {
	defer faultinject.Reset()
	tgt := newFakeTarget(2)
	pl := MustNew(tgt, Options{
		MaxBatch: 1 << 20, FlushInterval: -1,
		MaxRetries: 2, RetryBase: 100 * time.Microsecond,
	})
	if err := faultinject.Set("ingest/apply", "error"); err != nil { // every attempt fails
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		mustPush(t, pl, Insert(i, i+1, 1))
	}
	if err := pl.FlushSync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("FlushSync = %v, want ErrDegraded", err)
	}
	tot, _ := pl.Close()
	if tot.DegradedShards != 2 || tot.Dropped != 100 {
		t.Fatalf("totals = %+v, want both shards degraded, all 100 ops dropped", tot)
	}
}

func TestPipelineWALFailureShedsPushes(t *testing.T) {
	defer faultinject.Reset()
	log, err := wal.Open(t.TempDir(), wal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	rec := NewRecorder()
	pl := MustNew(newFakeTarget(2), Options{
		MaxBatch: 8, FlushInterval: -1,
		WAL: log, MaxRetries: 1, RetryBase: 100 * time.Microsecond, Recorder: rec,
	})
	if err := faultinject.Set("wal/append", "error"); err != nil {
		t.Fatal(err)
	}
	// This batch crosses MaxBatch and triggers a flush whose WAL append
	// fails past the retry budget.
	if err := pl.PushBatch(genUpdates(16)); err != nil {
		t.Fatalf("PushBatch during degradation = %v (admitted before the flush, must succeed)", err)
	}
	if err := pl.Push(Insert(1, 2, 3)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Push after WAL failure = %v, want ErrDegraded", err)
	}
	if err := pl.FlushSync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("FlushSync after WAL failure = %v, want ErrDegraded", err)
	}
	tot, _ := pl.Close()
	if !tot.WALDegraded {
		t.Fatalf("totals = %+v, want WALDegraded", tot)
	}
	if rec.WALFailures.Load() == 0 || rec.DegradedMode.Load() != 1 {
		t.Fatalf("recorder = %+v, want WAL failure counted and degraded_mode=1", rec.Snapshot())
	}
	// The in-memory store still applied the admitted tail.
	if tot.Inserted+tot.Deleted != 16 {
		t.Fatalf("applied = %d, want all 16 admitted ops", tot.Inserted+tot.Deleted)
	}
}

func TestPipelineWALIsExactStreamPrefix(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	tgt := newFakeTarget(4)
	pl := MustNew(tgt, Options{MaxBatch: 64, FlushInterval: -1, WAL: log})
	pushed := genUpdates(1000)
	for _, u := range pushed {
		mustPush(t, pl, u)
	}
	if err := pl.FlushSync(); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var replayed []core.EdgeOp
	next, err := wal.Replay(dir, 0, nil, func(lsn uint64, ops []core.EdgeOp) error {
		replayed = append(replayed, ops...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != uint64(len(pushed)) || len(replayed) != len(pushed) {
		t.Fatalf("replayed %d ops to LSN %d, want all %d", len(replayed), next, len(pushed))
	}
	for i := range pushed {
		if replayed[i] != pushed[i] {
			t.Fatalf("op %d: replayed %+v, pushed %+v (log must be the exact stream prefix)", i, replayed[i], pushed[i])
		}
	}
}

func TestPipelineFlushTimeout(t *testing.T) {
	block := make(chan struct{})
	tgt := newFakeTarget(2)
	tgt.applyFn = func(shard int, ops []Update) { <-block }
	pl := MustNew(tgt, Options{
		MaxBatch: 1 << 20, FlushInterval: -1, FlushTimeout: 50 * time.Millisecond,
	})
	mustPush(t, pl, Insert(0, 1, 1))
	if err := pl.FlushSync(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("FlushSync against a stuck shard = %v, want ErrTimeout", err)
	}
	close(block)
	if _, err := pl.Close(); err != nil {
		t.Fatalf("Close after unblocking = %v", err)
	}
}

func TestPipelineAbortDiscardsBacklog(t *testing.T) {
	tgt := newFakeTarget(2)
	pl := MustNew(tgt, Options{MaxBatch: 1 << 20, FlushInterval: -1})
	for i := uint64(0); i < 100; i++ {
		mustPush(t, pl, Insert(i, i+1, 1))
	}
	pl.Abort() // buffer never flushed: nothing may reach the target
	if got := tgt.appliedCount(0) + tgt.appliedCount(1); got != 0 {
		t.Fatalf("abort applied %d ops, want 0", got)
	}
	if err := pl.Push(Insert(1, 2, 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after Abort = %v, want ErrClosed", err)
	}
	pl.Abort() // idempotent
}

// genUpdates builds a deterministic mixed insert/delete stream.
func genUpdates(n int) []Update {
	out := make([]Update, 0, n)
	s := uint64(7)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 31)
	}
	for i := 0; i < n; i++ {
		if next()%5 == 0 {
			out = append(out, Delete(next()%300, next()%300))
		} else {
			out = append(out, Insert(next()%300, next()%300, float32(next()%90)/9))
		}
	}
	return out
}
