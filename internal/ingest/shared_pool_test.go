package ingest

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"graphtinker/internal/algorithms"
	"graphtinker/internal/core"
	"graphtinker/internal/engine"
)

// TestSharedPoolNoDeadlock drives every user of the process's apply helper
// pool at once on one Parallel: a pipeline's flushes, concurrent
// InsertBatch and ApplyOps calls (shard rounds whose shard applies nest a
// batch-apply round), and split engine runs reading the store mid-write.
// A round's owner waiting on its helpers runs only other rounds' leaf
// parts; were a shard or engine part run by a waiter that holds a shard's
// writer mutex, the mix would deadlock, and the test would time out.
func TestSharedPoolNoDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const vertices, timeout = 1 << 14, 2 * time.Minute
	rounds := 60
	if testing.Short() {
		rounds = 4
	}
	p := newParallel(t, 4)
	pl := MustNew(p, Options{MaxBatch: 4096, FlushInterval: -1})

	// Batches of 8192 ops give each of the four shards about 2048, past
	// the size at which a shard's apply splits across helpers.
	batch := func(seed uint64, del bool) []core.EdgeOp {
		ops := make([]core.EdgeOp, 8192)
		x := seed*0x9e3779b97f4a7c15 | 1
		for i := range ops {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			src, dst := x%vertices, (x>>20)%vertices
			ops[i] = core.InsertOp(src, dst, float32(i%7+1))
			if del && i%3 == 0 {
				ops[i] = core.DeleteOp(src, dst)
			}
		}
		return ops
	}

	var wg sync.WaitGroup
	run := func(f func(r int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				f(r)
			}
		}()
	}
	run(func(r int) {
		if err := pl.PushBatch(batch(uint64(r+1), r%2 == 1)); err != nil {
			t.Error(err)
		}
		pl.Flush()
	})
	run(func(r int) {
		ops := batch(uint64(r+100), false)
		edges := make([]core.Edge, len(ops))
		for i := range ops {
			edges[i] = ops[i].Edge
		}
		p.InsertBatch(edges)
	})
	run(func(r int) { p.ApplyOps(batch(uint64(r+200), true)) })
	for _, prog := range []engine.Program{algorithms.CC(), algorithms.BFS(0)} {
		run(func(int) {
			e, err := engine.New(p, prog, engine.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			e.RunFromScratch()
		})
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		buf := make([]byte, 1<<20)
		t.Fatalf("pool users still running after %v, deadlocked:\n%s", timeout, buf[:runtime.Stack(buf, true)])
	}
	if _, err := pl.Close(); err != nil {
		t.Fatal(err)
	}
}
