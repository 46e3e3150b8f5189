package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"graphtinker/internal/core"
)

// Mode selects the execution model of Sec. IV.B.
type Mode uint8

const (
	// FullProcessing is the store-and-static-compute model: every run
	// re-initializes all vertex properties and every iteration streams the
	// edge set (on a default GraphTinker, only the active sources' edges;
	// with the CAL on, or on STINGER, every edge).
	FullProcessing Mode = iota
	// IncrementalProcessing keeps properties across runs, seeds the
	// inconsistent vertices of the batch, and loads only the out-edges of
	// active vertices each iteration.
	IncrementalProcessing
	// Hybrid keeps incremental semantics but lets the inference box pick,
	// for each iteration, whether to load edges by streaming (FP path) or
	// by active-vertex walks (IP path).
	Hybrid
)

func (m Mode) String() string {
	switch m {
	case FullProcessing:
		return "full"
	case IncrementalProcessing:
		return "incremental"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// DefaultThreshold is the inference-box threshold of Sec. IV.B: full
// processing is predicted cheaper when the active fraction T = A/E exceeds
// 0.02.
const DefaultThreshold = 0.02

// Options configures an engine instance.
type Options struct {
	// Mode is the execution model.
	Mode Mode
	// Threshold overrides the inference-box threshold. Zero is an explicit
	// sentinel selecting DefaultThreshold (an actual threshold of 0 would
	// make hybrid mode identical to full processing: T = A/E > 0 whenever
	// any vertex is active, so no zero behaviour is lost). Negative values
	// are rejected.
	Threshold float64
	// MaxIterations guards against non-converging programs; 0 derives a
	// bound from the vertex count. Negative values are rejected.
	MaxIterations int
}

// Engine runs one Program over one GraphStore, keeping vertex properties
// alive across batch updates so incremental and hybrid runs can continue
// from the previous fixed point.
//
// Every engine runs the same GAS loop: the inference box, a processing
// phase that loads edges into the VTempProperty buffer, and one apply
// phase. The constructor fixes how the processing phase loads edges:
//   - New: scatter, split across GOMAXPROCS workers when the store splits
//     its edge walk (by dense-id stripes, or by whole shards where the
//     representation does not stripe) and the program has a plain Apply,
//     else on one worker straight into the global buffer (parallel.go);
//   - NewVC: pull, gathering each vertex's messages over its in-edges
//     (vc.go).
type Engine struct {
	store GraphStore
	prog  Program
	opts  Options

	split splitStore  // set when New splits: walks a full iteration's parts
	in    InEdgeStore // set for the pull strategy

	// val is the VPropertyArray. The embedded worker's buffer is the
	// VTempProperty buffer of the processing phase (Sec. IV.A), the one
	// the apply phase reads.
	val []float64
	worker
	// workers lists every scatter context, the embedded worker first.
	workers []*worker

	// The split iteration in flight: its kind and the active-list offset
	// the next chunk claim gets. fan runs its parts, part w on worker w.
	full    bool
	claimed atomic.Int64
	fan     *core.Fan

	cur, next *frontier
}

// New validates the program and builds an engine sized to the store's
// current vertex space. It scatters with GOMAXPROCS workers when the store
// splits its edge walk (a default GraphTinker, Parallel or Mirrored, or a
// ReprBlocks Parallel or stinger.Parallel of two or more shards) and the
// program has a plain Apply; otherwise (a lone STINGER or ReprBlocks
// graph, or an ApplyVertex-only program such as PageRank) with one.
// ApplyVertex exists for per-vertex side state, and the ScatterValue that
// reads it would run on every worker at once: PageRank's grows its shared
// pending slice, which concurrent workers cannot do safely.
func New(store GraphStore, prog Program, opts Options) (*Engine, error) {
	s, ok := store.(splitStore)
	if !ok || !s.SplitsEdgeWalk() || prog.Apply == nil {
		return newEngine(store, prog, opts, 1)
	}
	e, err := newEngine(store, prog, opts, runtime.GOMAXPROCS(0))
	if err == nil {
		e.split = s
	}
	return e, err
}

// MustNew is New for known-valid inputs.
func MustNew(store GraphStore, prog Program, opts Options) *Engine {
	return must(New(store, prog, opts))
}

func must(e *Engine, err error) *Engine {
	if err != nil {
		panic(err)
	}
	return e
}

// newEngine is the one validation path: the program's hooks, the mode, the
// Threshold rule (0 is the sentinel for DefaultThreshold) and the guard.
func newEngine(store GraphStore, prog Program, opts Options, workers int) (*Engine, error) {
	if err := validateProgram(prog); err != nil {
		return nil, err
	}
	switch {
	case opts.Mode > Hybrid:
		return nil, fmt.Errorf("engine: unknown mode %d", opts.Mode)
	case opts.Threshold < 0:
		return nil, fmt.Errorf("engine: threshold %g is negative; use 0 for the default (%g) or any positive value", opts.Threshold, DefaultThreshold)
	case opts.MaxIterations < 0:
		return nil, fmt.Errorf("engine: negative MaxIterations")
	}
	if opts.Threshold == 0 {
		opts.Threshold = DefaultThreshold
	}
	e := &Engine{store: store, prog: prog, opts: opts,
		cur: newFrontier(0), next: newFrontier(0)}
	e.workers = []*worker{&e.worker}
	for len(e.workers) < workers {
		e.workers = append(e.workers, new(worker))
	}
	for w, ws := range e.workers {
		ws.part = w
		ws.bind(e)
	}
	if workers > 1 {
		e.fan = core.NewFan(func(w int) { e.workers[w].scatter(len(e.workers)) })
	}
	e.Resize()
	return e, nil
}

// Mode returns the engine's execution model.
func (e *Engine) Mode() Mode { return e.opts.Mode }

// Resize grows the property arrays to cover the store's current vertex id
// space, initializing new vertices with the program's InitVertex. Call it
// (or RunAfterBatch, which calls it) after every batch update.
func (e *Engine) Resize() {
	maxID, ok := e.store.MaxVertexID()
	if !ok {
		return
	}
	n := maxID + 1
	for uint64(len(e.val)) < n {
		e.val = append(e.val, e.prog.InitVertex(uint64(len(e.val))))
	}
	for uint64(len(e.temp)) < n {
		e.temp = append(e.temp, 0)
		e.isTouched = append(e.isTouched, false)
	}
	e.cur.grow(n)
	e.next.grow(n)
}

// NumVertices is the size of the property arrays.
func (e *Engine) NumVertices() uint64 { return uint64(len(e.val)) }

// Value returns the current property of v (the program's InitVertex value
// when v is out of range).
func (e *Engine) Value(v uint64) float64 {
	if v < uint64(len(e.val)) {
		return e.val[v]
	}
	return e.prog.InitVertex(v)
}

// Values exposes the full property array (live; do not mutate).
func (e *Engine) Values() []float64 { return e.val }

// RunAfterBatch performs the engine's work for one freshly applied batch
// update, per the engine's mode: full processing restarts from scratch;
// incremental and hybrid seed the batch's inconsistent vertices and
// continue from the previous properties.
func (e *Engine) RunAfterBatch(batch []Edge) RunResult {
	if e.opts.Mode == FullProcessing {
		return e.RunFromScratch()
	}
	e.Resize()
	e.prog.SeedInconsistent(batch, SeedContext{e})
	return e.iterate()
}

// RunFromScratch re-initializes all properties and runs to convergence
// using the engine's configured loading paths. It is the static
// recomputation used after deletion batches, where monotone incremental
// programs cannot repair their state.
func (e *Engine) RunFromScratch() RunResult {
	e.Resize()
	for v := range e.val {
		e.val[v] = e.prog.InitVertex(uint64(v))
	}
	e.cur.clear()
	e.next.clear()
	e.prog.InitialSeeds(SeedContext{e})
	return e.iterate()
}

// iterate runs processing+apply iterations until the frontier empties.
func (e *Engine) iterate() RunResult {
	res := RunResult{Algorithm: e.prog.Name, Mode: e.opts.Mode, Converged: true}
	guard := e.opts.MaxIterations
	if guard == 0 {
		guard = len(e.val) + 2
	}
	e.holdHelperBuffers(true)
	defer e.holdHelperBuffers(false)
	for iter := 0; e.cur.size() > 0; iter++ {
		if iter >= guard {
			res.Converged = false
			break
		}
		it := IterationStats{Index: iter, Active: uint64(e.cur.size()), PredictorT: math.Inf(1)}

		// Inference box (Sec. IV.B): T = A / E, where A is the number of
		// active vertices for this iteration and E the edges loaded so far.
		if edgeCount := e.store.NumEdges(); edgeCount > 0 {
			it.PredictorT = float64(it.Active) / float64(edgeCount)
		}
		switch e.opts.Mode {
		case FullProcessing:
			it.UsedFull = true
		case Hybrid:
			it.UsedFull = it.PredictorT > e.opts.Threshold
		}

		start := time.Now()
		split := false
		if e.in != nil {
			it.UsedFull = true // the pull model always sweeps the vertex set
			e.gather()
		} else {
			split = e.scatter(it.UsedFull)
		}
		processDone := time.Now()
		it.ProcessDuration = processDone.Sub(start)
		applyStart := processDone
		if split {
			e.mergeWorkers()
			applyStart = time.Now()
			it.MergeDuration = applyStart.Sub(processDone)
		}
		e.applyPhase(&it)
		it.ApplyDuration = time.Since(applyStart)
		it.Duration = time.Since(start)
		res.accumulate(it)

		e.cur.clear()
		e.cur, e.next = e.next, e.cur
	}
	return res
}

// scatterInput resolves the value ProcessEdge sees for a source vertex.
// ScatterValue hooks run concurrently under the split scatter.
func (e *Engine) scatterInput(src uint64) float64 {
	if e.prog.ScatterValue != nil {
		return e.prog.ScatterValue(src, e.val[src])
	}
	return e.val[src]
}

// applyPhase takes the iteration's counters, commits the buffered
// properties and builds the next frontier.
func (e *Engine) applyPhase(it *IterationStats) {
	it.EdgesLoaded, it.EdgesProcessed, it.ActiveDegreeSum = e.loaded, e.processed, e.processed
	e.loaded, e.processed = 0, 0
	it.TouchedVertices = uint64(len(e.touched))
	for _, v := range e.touched {
		var newVal float64
		var act bool
		if e.prog.ApplyVertex != nil {
			newVal, act = e.prog.ApplyVertex(v, e.val[v], e.temp[v])
		} else {
			newVal, act = e.prog.Apply(e.val[v], e.temp[v])
		}
		e.val[v] = newVal
		if act {
			e.next.add(v)
		}
		e.isTouched[v] = false
	}
	e.touched = e.touched[:0]
}

// scratch is a VTempProperty buffer with its touched list.
type scratch struct {
	temp      []float64
	isTouched []bool
	touched   []uint64
}

// worker is one processing context: a scratch buffer, the iteration's work
// counters, and edge visitors built once so that walking a vertex's edges
// allocates nothing. The first worker's buffer is the engine's global one;
// a helper holds one only for the length of a run.
type worker struct {
	eng  *Engine
	part int // the worker's index: the part it walks in a split full iteration
	scratch

	loaded, processed uint64

	// srcVal is the ProcessEdge input of the vertex whose out-edges
	// visitOut walks; dst the vertex whose in-edges visitIn walks (pull).
	srcVal      float64
	dst         uint64
	active      func(src uint64) bool
	visitOut    func(dst uint64, w float32) bool
	visitEdge   func(src, dst uint64, w float32) bool
	visitIn     func(src uint64, w float32) bool
	visitSource func(v uint64, inDegree uint32) bool
}

// bind points the worker at its engine and builds the scatter visitors.
// It must not be inlined: the compiler clones closures of an inlined body
// into the caller without inlining the calls inside them, which would
// leave contains, scatterInput and accumulate as real calls on every edge.
//
//go:noinline
func (ws *worker) bind(e *Engine) {
	ws.eng = e
	ws.active = func(src uint64) bool { return e.cur.contains(src) }
	ws.visitOut = func(dst uint64, w float32) bool {
		ws.loaded++
		ws.processed++
		ws.accumulate(dst, e.prog.ProcessEdge(ws.srcVal, w), e.prog.Reduce)
		return true
	}
	ws.visitEdge = func(src, dst uint64, w float32) bool {
		ws.loaded++
		if e.cur.contains(src) {
			ws.processed++
			ws.accumulate(dst, e.prog.ProcessEdge(e.scatterInput(src), w), e.prog.Reduce)
		}
		return true
	}
}

// scatter is one worker's share of a scatter iteration split into parts
// (1 when it runs inline). In an incremental iteration it claims chunks of
// the active list and walks their out-edges from the store's random-access
// path. A full iteration instead streams the worker's part of the store
// (the whole store when parts is 1), handing the store the frontier (the
// dense mode of a Ligra-style edge map), and processes the edges whose
// source is active — the contiguous-access processing phase. Either way
// the edges processed are exactly the out-edges of active vertices, so
// the processed count is also the active out-degree sum; the edges loaded
// are those plus whatever the store could not skip.
func (ws *worker) scatter(parts int) {
	e := ws.eng
	switch {
	case !e.full:
		active := e.cur.list
		for {
			hi := int(e.claimed.Add(activeChunk))
			if hi-activeChunk >= len(active) {
				return
			}
			for _, u := range active[hi-activeChunk : min(hi, len(active))] {
				ws.srcVal = e.scatterInput(u)
				e.store.ForEachOutEdge(u, ws.visitOut)
			}
		}
	case parts == 1:
		e.store.ForEachActiveEdge(ws.active, ws.visitEdge)
	default:
		e.split.ForEachActivePartEdge(ws.part, parts, ws.active, ws.visitEdge)
	}
}

// accumulate reduces a message into the worker's buffer. Every edge
// visitor inlines it, which needs it within the compiler's inlining
// budget: reduce is the program's Reduce passed as a parameter because the
// inliner charges a call through a parameter 17 where a call through a
// struct field costs 57, more than this body has to spare.
func (ws *worker) accumulate(dst uint64, msg float64, reduce func(a, b float64) float64) {
	if dst >= uint64(len(ws.temp)) {
		// A destination beyond the property arrays can only appear if the
		// store mutated mid-run; ignore rather than corrupt.
		return
	}
	if ws.isTouched[dst] {
		ws.temp[dst] = reduce(ws.temp[dst], msg)
	} else {
		ws.temp[dst] = msg
		ws.isTouched[dst] = true
		ws.touched = append(ws.touched, dst)
	}
}
