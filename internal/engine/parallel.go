package engine

// Split scatter. The paper parallelizes updates by sharding the structure
// across instances (Sec. III.D); this strategy extends the same idea to
// the processing phase. In full-processing iterations worker w streams
// part w of the store (splitStore.ForEachActivePartEdge): a stripe of
// dense ids of every shard, or, where the representation does not stripe,
// whole shards dealt out round-robin. In incremental iterations the
// workers claim fixed-size chunks of the active list, so a chunk of hubs
// does not hold up one worker while the others idle. Workers accumulate
// into private VTempProperty buffers, merged with the program's Reduce
// (which must therefore be commutative and associative — true of min, sum
// and every GAS combiner) before the apply phase. Results are
// bit-identical to the one-worker scatter when Reduce does not depend on
// order (min, max); a floating-point sum reduced in another order agrees
// only to rounding.

// splitStore is a store whose full-processing walk New splits:
// core.GraphTinker, core.Parallel, core.Mirrored and stinger.Parallel.
// SplitsEdgeWalk is false for a lone instance of the paper's structure
// (ReprBlocks), which streams on one worker as its figures measure, and
// for a one-shard stinger.Parallel; sharded, both split by shard.
type splitStore interface {
	SplitsEdgeWalk() bool
	ForEachActivePartEdge(part, parts int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool)
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
// small, else as one round on the process's apply helper pool, part w on
// worker w, which the caller claims beside whichever helpers are free.
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
	if !full {
		// Every worker past the last chunk would find nothing to claim.
		p = min(p, 1+(active-1)/activeChunk)
	}
	e.fan.Run(p)
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
