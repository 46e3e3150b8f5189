package engine

import "fmt"

// Split scatter. The paper parallelizes updates by sharding the structure
// across instances (Sec. III.D); this strategy extends the same idea to
// the processing phase. In full-processing iterations worker w streams
// part w of the store: a shard under NewParallelEngine, a stripe of dense
// ids of every shard under New (GraphTinker.ForEachActivePartEdge). In
// incremental iterations the workers claim fixed-size chunks of the active
// list, so a chunk of hubs does not hold up one worker while the others
// idle. Workers accumulate into private VTempProperty buffers, merged with
// the program's Reduce (which must therefore be commutative and
// associative — true of min, sum and every GAS combiner) before the apply
// phase. Results are bit-identical to the one-worker scatter when Reduce
// does not depend on order (min, max); a floating-point sum reduced in
// another order agrees only to rounding.

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

// partWalk is ForEachActiveEdge over part `part` of `parts` disjoint parts.
type partWalk func(part, parts int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool)

// splitStore is a store whose full-processing walk New splits:
// core.GraphTinker, core.Parallel and core.Mirrored. SplitsEdgeWalk is
// false for the paper's structure (ReprBlocks), which streams on one
// worker as its figures measure.
type splitStore interface {
	SplitsEdgeWalk() bool
	ForEachActivePartEdge(part, parts int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool)
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
	e.walkPart = func(shard, _ int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
		store.ForEachActiveShardEdge(shard, active, fn)
	}
	return e, nil
}

// MustNewParallelEngine is NewParallelEngine for known-valid inputs.
func MustNewParallelEngine(store ShardedStore, prog Program, opts Options) *ParallelEngine {
	return must(NewParallelEngine(store, prog, opts))
}

const (
	// splitMinWork is the least work an iteration splits, counted in
	// vertices: the active ones in an incremental iteration, each a
	// random-access walk, and the whole vertex space in a full one, whose
	// walk sweeps it (or streams every edge). Below it, waking helpers and
	// merging their buffers cost more than they save, and the iteration
	// runs inline on the first worker, exactly as a one-worker engine does.
	// It is where one worker and two cross in BenchmarkEngineSplit
	// (DESIGN.md §7).
	splitMinWork = 2048
	// activeChunk is how many active vertices an incremental iteration's
	// worker claims at a time.
	activeChunk = 64
)

// scatter runs one scatter iteration and reports whether it split: inline
// on the first worker when the engine has one worker or the iteration is
// small, else on the caller as the first worker plus helpers.
func (e *Engine) scatter(full bool) (split bool) {
	p, active := len(e.workers), len(e.cur.list)
	e.full = full
	e.claimed.Store(0)
	work := active
	if full {
		work = len(e.val)
	}
	if p == 1 || work < splitMinWork {
		e.worker.scatter(1)
		return false
	}
	helpers := e.workers[1:]
	if !full {
		// Every worker past the last chunk would find nothing to claim.
		helpers = helpers[:min(len(helpers), (active-1)/activeChunk)]
	}
	e.wg.Add(len(helpers))
	for _, ws := range helpers {
		go ws.run()
	}
	e.worker.scatter(p)
	e.wg.Wait()
	return true
}

// holdHelperBuffers gives every helper a clean buffer for a run (hold) or
// drops them at its end. A run buys them whatever its frontiers, so what
// it allocates depends on the vertex count alone, and an idle engine holds
// none. The touched list can name each vertex once, so it never grows.
func (e *Engine) holdHelperBuffers(hold bool) {
	n := len(e.val)
	for _, ws := range e.workers[1:] {
		ws.scratch = scratch{}
		if hold {
			ws.scratch = scratch{make([]float64, n), make([]bool, n), make([]uint64, 0, n)}
		}
	}
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
