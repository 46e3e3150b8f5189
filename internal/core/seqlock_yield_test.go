package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSeqlockWriterYield pins the writer yield (seqlock.go, drain): with at
// least as many goroutines looping on FindEdge over one DUAL shard as there
// are Ps, a reader the scheduler preempts while pinned to the replica a
// writer must drain gets back on a P because every new read yields once
// while the drain waits. Without the yield the 400 writes below took about
// 16 s at GOMAXPROCS 2 with four readers (24–26 writes/s); with it they
// take milliseconds.
func TestSeqlockWriterYield(t *testing.T) {
	for _, tc := range []struct{ procs, readers int }{{2, 4}, {1, 1}} {
		t.Run(fmt.Sprintf("procs=%d,readers=%d", tc.procs, tc.readers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			const preload, writes = 20000, 400
			const limit = 2 * time.Second
			p, err := NewParallel(testConfig(t), 1)
			if err != nil {
				t.Fatal(err)
			}
			r := &testRand{s: 46}
			edges := make([]Edge, preload)
			for i := range edges {
				edges[i] = Edge{Src: r.next() % 2048, Dst: r.next() % 4096, Weight: 1}
			}
			p.InsertBatch(edges)
			promoteAll(p)

			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < tc.readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; !stop.Load(); i++ {
						e := edges[i%len(edges)]
						if _, ok := p.FindEdge(e.Src, e.Dst); !ok {
							t.Errorf("preloaded edge %d->%d missing", e.Src, e.Dst)
							return
						}
					}
				}(g)
			}
			start := time.Now()
			for i := 0; i < writes && time.Since(start) < limit; i++ {
				p.InsertEdge(1<<20+uint64(i), uint64(i), 1)
			}
			took := time.Since(start)
			stop.Store(true)
			wg.Wait()
			if took >= limit {
				t.Fatalf("%d single-edge writes beside %d readers took over %v", writes, tc.readers, limit)
			}
			for i := 0; i < writes; i++ {
				if _, ok := p.FindEdge(1<<20+uint64(i), uint64(i)); !ok {
					t.Fatalf("written edge %d missing", i)
				}
			}
			if p.ShardStats()[0].Replicas != 2 {
				t.Fatal("shard left DUAL mode under steady readers; the writes did not drain")
			}
			t.Logf("%d writes in %v", writes, took)
		})
	}
}
