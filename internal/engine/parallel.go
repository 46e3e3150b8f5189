package engine

import (
	"fmt"
	"sync"
)

// Sharded scatter. The paper parallelizes updates by sharding the
// structure across instances (Sec. III.D); this strategy extends the same
// sharding to the processing phase: in full-processing iterations each
// shard is streamed by its own worker, and in incremental iterations the
// active-vertex list is partitioned across workers. Workers accumulate
// into private VTempProperty buffers, merged with the program's Reduce
// (which must therefore be commutative and associative — true of min, sum
// and every GAS combiner) before the apply phase. Results are
// bit-identical to the sequential scatter for deterministic Reduce
// functions.

// ShardedStore is the read surface the sharded scatter needs; it is
// satisfied by core.Parallel. Shard iteration must be read-only (safe for
// concurrent readers).
type ShardedStore interface {
	GraphStore
	// NumShards reports how many shards back the store.
	NumShards() int
	// ForEachActiveShardEdge is GraphStore.ForEachActiveEdge over one
	// shard.
	ForEachActiveShardEdge(shard int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool)
}

// ParallelEngine is the Engine NewParallelEngine builds; the name stays
// for existing callers.
type ParallelEngine = Engine

// NewParallelEngine validates the program and builds an engine that
// scatters with one worker per shard. Programs with only an ApplyVertex
// hook are refused. ApplyVertex exists for per-vertex side state, and the
// ScatterValue that reads it runs on every worker at once: PageRank's
// grows its shared pending slice (ensure), which concurrent workers
// cannot do safely.
func NewParallelEngine(store ShardedStore, prog Program, opts Options) (*ParallelEngine, error) {
	if prog.ApplyVertex != nil && prog.Apply == nil {
		return nil, fmt.Errorf("engine: parallel engine requires a plain Apply hook")
	}
	e, err := newEngine(store, prog, opts, store.NumShards())
	if err != nil {
		return nil, err
	}
	e.shards = store
	return e, nil
}

// MustNewParallelEngine is NewParallelEngine for known-valid inputs.
func MustNewParallelEngine(store ShardedStore, prog Program, opts Options) *ParallelEngine {
	return must(NewParallelEngine(store, prog, opts))
}

// smallIterationCutoff is the per-worker work floor below which fanning
// out goroutines costs more than it saves; such iterations run inline on
// the first worker, exactly as the sequential scatter does.
const smallIterationCutoff = 512

// scatterSharded fans one iteration out across the workers: worker w
// streams shard w (full) or walks its slice of the active list
// (incremental).
func (e *Engine) scatterSharded(full bool) {
	active, p := e.cur.list, len(e.workers)
	small := len(active) < p*smallIterationCutoff/8
	if full {
		small = e.store.NumEdges() < uint64(p)*smallIterationCutoff
	}
	if small || p == 1 {
		e.worker.scatter(active, full, -1)
		return
	}
	var wg sync.WaitGroup
	for w, ws := range e.workers {
		lo, hi := len(active)*w/p, len(active)*(w+1)/p
		if lo == hi && !full {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws.scatter(active[lo:hi], full, w)
		}()
	}
	wg.Wait()
}

// mergeWorkers folds every other worker's buffer and counters into the
// first worker's, which is the global buffer.
func (e *Engine) mergeWorkers() {
	for _, ws := range e.workers[1:] {
		for _, v := range ws.touched {
			if e.isTouched[v] {
				e.temp[v] = e.prog.Reduce(e.temp[v], ws.temp[v])
			} else {
				e.temp[v] = ws.temp[v]
				e.isTouched[v] = true
				e.touched = append(e.touched, v)
			}
			ws.isTouched[v] = false
		}
		ws.touched = ws.touched[:0]
		e.loaded += ws.loaded
		e.processed += ws.processed
		ws.loaded, ws.processed = 0, 0
	}
}
