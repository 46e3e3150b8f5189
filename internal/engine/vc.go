package engine

// Pull strategy — the vertex-centric model the paper's future-work
// section proposes exploring ("Future work on GraphTinker will explore the
// efficiency of the vertex-centric model with our data structure").
//
// Where the scatter strategies walk the out-edges of active vertices, pull
// visits each vertex with in-edges every iteration and gathers the
// messages of those in-neighbours that are active. Each vertex only
// writes its own buffer slot, so pulling is contention-free and wins when
// frontiers are dense; the cost is touching every vertex's in-edge list
// each iteration. It requires in-edge access, which core.Mirrored
// provides.

// InEdgeStore extends GraphStore with reverse-direction access.
type InEdgeStore interface {
	GraphStore
	// InDegree reports the live in-degree of a vertex.
	InDegree(v uint64) uint32
	// ForEachInEdge visits the in-edges of one vertex as (source, weight)
	// pairs. The callback returns false to stop.
	ForEachInEdge(v uint64, fn func(src uint64, w float32) bool)
	// ForEachInSource visits every vertex with at least one in-edge.
	ForEachInSource(fn func(v uint64, inDegree uint32) bool)
}

// VCEngine is the Engine NewVC builds; the name stays for existing
// callers.
type VCEngine = Engine

// NewVC validates the program and builds an engine that pulls over
// in-edges. Options mean what they mean for New, except that the pull
// model has a single loading path: every iteration sweeps all in-edges, so
// Threshold is unused and Mode only decides whether RunAfterBatch restarts
// (FullProcessing) or continues from the previous properties.
func NewVC(store InEdgeStore, prog Program, opts Options) (*VCEngine, error) {
	e, err := newEngine(store, prog, opts, 1)
	if err != nil {
		return nil, err
	}
	e.in = store
	ws := &e.worker
	ws.visitIn = func(src uint64, w float32) bool {
		ws.loaded++
		if e.cur.contains(src) {
			ws.processed++
			ws.accumulate(ws.dst, e.prog.ProcessEdge(e.scatterInput(src), w), e.prog.Reduce)
		}
		return true
	}
	ws.visitSource = func(v uint64, _ uint32) bool {
		ws.dst = v
		store.ForEachInEdge(v, ws.visitIn)
		return true
	}
	return e, nil
}

// MustNewVC is NewVC for known-valid inputs.
func MustNewVC(store InEdgeStore, prog Program, opts Options) *VCEngine {
	return must(NewVC(store, prog, opts))
}

// gather is the pull iteration: every vertex with in-edges reduces the
// messages of its active in-neighbours into the global buffer, which the
// apply phase commits as for a scatter. The in-edges processed are exactly
// the out-edges of active vertices, seen from the other end.
func (e *Engine) gather() {
	e.in.ForEachInSource(e.visitSource)
}
