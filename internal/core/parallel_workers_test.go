package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParallelOwnsNoGoroutines pins that a Parallel's batches run on the
// process's helper pool: many batches on a never-closed store leave at
// most the pool's GOMAXPROCS−1 helpers behind, and a Close at any point,
// even under concurrent readers, changes neither that nor the result.
func TestParallelOwnsNoGoroutines(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	before := runtime.NumGoroutine()
	p, err := NewParallel(DefaultConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ref := MustNew(DefaultConfig())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for round := 0; round < 12; round++ {
		edges := benchEdges(4096, 2048, uint64(round+5))
		if round == 6 {
			// Readers hammer the query surface across the Close.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						e := edges[seed%len(edges)]
						p.FindEdge(e.Src, e.Dst)
						p.OutDegree(e.Src)
						seed++
					}
				}(r * 31)
			}
			p.Close()
		}
		if round%3 == 2 {
			if got, want := p.DeleteBatch(edges), ref.DeleteBatch(edges); got != want {
				t.Fatalf("round %d: DeleteBatch = %d, want %d", round, got, want)
			}
		} else if got, want := p.InsertBatch(edges), ref.InsertBatch(edges); got != want {
			t.Fatalf("round %d: InsertBatch = %d, want %d", round, got, want)
		}
	}
	close(stop)
	wg.Wait()
	p.Close()
	if p.NumEdges() != ref.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", p.NumEdges(), ref.NumEdges())
	}
	// The readers' deferred wg.Done runs before they exit, so give them a
	// moment to leave the count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+procs-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+procs-1 {
		t.Fatalf("%d goroutines above the baseline after the batches, want at most %d helpers", g-before, procs-1)
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [32]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// TestParallelNestedFanOutMatchesApplyShard pins the nested fan-out: a
// batch deals its shards to the helper pool and each shard's apply splits
// again on the same pool, yet every counter, the edge count and the
// snapshot bytes match a twin fed shard by shard through ApplyShard on
// the caller. With helpers, some shard part must run off the caller.
func TestParallelNestedFanOutMatchesApplyShard(t *testing.T) {
	const shards = 4
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p, err := NewParallel(DefaultConfig(), shards)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewParallel(DefaultConfig(), shards)
			if err != nil {
				t.Fatal(err)
			}
			caller, offCaller := goid(), 0
			var mu sync.Mutex
			run := p.round.run
			p.round.run = func(k int) {
				if goid() != caller {
					mu.Lock()
					offCaller++
					mu.Unlock()
				}
				run(k)
			}

			r := &testRand{s: uint64(procs)}
			for batch := 0; batch < 4; batch++ {
				ops := make([]EdgeOp, 0, shards*5*parallelMinOps)
				for len(ops) < cap(ops) {
					src, dst := r.next()%20000, r.next()%20000
					if r.next()%4 == 0 {
						ops = append(ops, DeleteOp(src, dst))
					} else {
						ops = append(ops, InsertOp(src, dst, float32(r.next()%100)))
					}
				}
				perShard := make([][]EdgeOp, shards)
				for _, op := range ops {
					s := twin.ShardOf(op.Src)
					perShard[s] = append(perShard[s], op)
				}
				var wantIns, wantDel int
				for s, part := range perShard {
					if len(part) < 4*parallelMinOps {
						t.Fatalf("shard %d holds %d ops, want at least %d", s, len(part), 4*parallelMinOps)
					}
					ins, del := twin.ApplyShard(s, part)
					wantIns += ins
					wantDel += del
				}
				if ins, del := p.ApplyOps(ops); ins != wantIns || del != wantDel {
					t.Fatalf("batch %d: ApplyOps = (%d, %d), shard by shard (%d, %d)", batch, ins, del, wantIns, wantDel)
				}
			}
			if got, want := p.Stats(), twin.Stats(); got != want {
				t.Fatalf("Stats = %+v, shard by shard %+v", got, want)
			}
			if got, want := p.NumEdges(), twin.NumEdges(); got != want {
				t.Fatalf("NumEdges = %d, shard by shard %d", got, want)
			}
			var got, want bytes.Buffer
			if err := p.WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if err := twin.WriteSnapshot(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("snapshot bytes differ from the shard-by-shard twin")
			}
			if procs > 1 && offCaller == 0 {
				t.Fatal("every shard part ran on the caller")
			}
		})
	}
}

// TestParallelBatchViaWorkersMatchesSequential drives the worker fan-out
// through mixed insert/delete batches and checks the result against a
// single sequential instance.
func TestParallelBatchViaWorkersMatchesSequential(t *testing.T) {
	p, err := NewParallel(DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ref := MustNew(DefaultConfig())

	for round := 0; round < 6; round++ {
		ins := benchEdges(3000, 700, uint64(round+1))
		del := benchEdges(1200, 700, uint64(round+7))
		gotIns, wantIns := p.InsertBatch(ins), ref.InsertBatch(ins)
		if gotIns != wantIns {
			t.Fatalf("round %d: InsertBatch=%d want %d", round, gotIns, wantIns)
		}
		gotDel, wantDel := p.DeleteBatch(del), ref.DeleteBatch(del)
		if gotDel != wantDel {
			t.Fatalf("round %d: DeleteBatch=%d want %d", round, gotDel, wantDel)
		}
		if p.NumEdges() != ref.NumEdges() {
			t.Fatalf("round %d: NumEdges=%d want %d", round, p.NumEdges(), ref.NumEdges())
		}
	}
	ref.ForEachEdge(func(src, dst uint64, w float32) bool {
		got, ok := p.FindEdge(src, dst)
		if !ok {
			t.Fatalf("edge (%d,%d) missing from sharded store", src, dst)
		}
		if got != w {
			t.Fatalf("edge (%d,%d) weight %v want %v", src, dst, got, w)
		}
		return true
	})
}
