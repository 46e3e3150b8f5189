// Package engine implements the paper's hybrid graph engine (Sec. IV): an
// edge-centric Gather-Apply-Scatter computation model running over any
// dynamic graph store, with three execution modes — full processing
// (store-and-static-compute), incremental processing, and the hybrid mode
// whose inference box picks the cheaper edge-loading path for every
// iteration using the predictor T = A/E against a fixed threshold. One
// Engine type runs that loop; its constructor picks how edges are loaded:
// scatter split across GOMAXPROCS workers where the store allows it, else
// on one (New), or pull over in-edges (NewVC).
package engine

import "graphtinker/internal/core"

// Edge is the batch-update record algorithms seed their inconsistent
// vertices from. It aliases the core edge type so harnesses can hand
// batches straight through.
type Edge = core.Edge

// GraphStore is the read surface the engine needs from a dynamic graph
// structure. core.GraphTinker, core.Parallel, core.Mirrored and
// stinger.Stinger satisfy it. A default GraphTinker streams a full
// iteration by walking only the active sources' slices and cuckoo tables;
// with the CAL on it streams the whole Coarse Adjacency List (contiguous),
// and STINGER scans its logical vertex array and block chains.
type GraphStore interface {
	// NumEdges is the number of live edges ("E", the denominator of the
	// inference-box predictor).
	NumEdges() uint64
	// MaxVertexID is the highest raw vertex id observed on either endpoint;
	// the second result is false while the graph is empty.
	MaxVertexID() (uint64, bool)
	// OutDegree returns the live out-degree of a vertex.
	OutDegree(src uint64) uint32
	// ForEachOutEdge visits the out-edges of one vertex (the random-access
	// path incremental processing uses). The callback returns false to stop.
	ForEachOutEdge(src uint64, fn func(dst uint64, w float32) bool)
	// ForEachActiveEdge is the streaming path full processing uses: it
	// visits at least the out-edges of every source active accepts, and
	// may visit others (a store that cannot skip a source streams every
	// edge), so the engine still checks each edge's source. The callback
	// returns false to stop.
	ForEachActiveEdge(active func(src uint64) bool, fn func(src, dst uint64, w float32) bool)
}

// SeedContext is handed to a Program's seeding hooks so they can inspect
// vertex state and activate vertices for the first iteration.
type SeedContext struct{ eng *Engine }

// Value returns the current property of vertex v.
func (s SeedContext) Value(v uint64) float64 { return s.eng.Value(v) }

// Activate marks v active for the first iteration of the coming run.
// Out-of-range ids are ignored.
func (s SeedContext) Activate(v uint64) {
	if v < uint64(len(s.eng.val)) {
		s.eng.cur.add(v)
	}
}

// SetValue overrides the property of v (e.g. pinning a root's distance to
// zero). Out-of-range ids are ignored.
func (s SeedContext) SetValue(v uint64, val float64) {
	if v < uint64(len(s.eng.val)) {
		s.eng.val[v] = val
	}
}

// NumVertices is the size of the engine's property arrays (max raw id + 1).
func (s SeedContext) NumVertices() uint64 { return uint64(len(s.eng.val)) }

// Program is an edge-centric GAS vertex program (Sec. IV.A). An algorithm
// conformable to the paradigm defines processEdge, reduce and apply; the
// two seeding hooks implement the paper's "Set Inconsistency Vertices"
// unit, which differs per algorithm (e.g. BFS seeds batch-edge sources, CC
// seeds both endpoints).
type Program struct {
	// Name labels the algorithm in metrics and reports.
	Name string
	// InitVertex gives a vertex's property before any computation (+Inf for
	// distance algorithms, the vertex's own id for label propagation).
	InitVertex func(v uint64) float64
	// ProcessEdge computes the message an edge carries from its source's
	// current property (the processing-phase user function).
	ProcessEdge func(srcVal float64, w float32) float64
	// Reduce combines two messages destined for the same vertex.
	Reduce func(a, b float64) float64
	// Apply commits the reduced message against the old property and
	// decides whether the vertex becomes active next iteration.
	Apply func(old, reduced float64) (newVal float64, activate bool)
	// ScatterValue, when non-nil, replaces the raw source property as the
	// input to ProcessEdge (called once per scattered edge with the source
	// id). Algorithms whose outgoing message is not a pure function of the
	// property — e.g. delta-based PageRank, which scatters the pending
	// delta normalized by the source's out-degree — hook it here. With a
	// plain Apply, ScatterValue, ProcessEdge and Reduce may run on several
	// workers at once, so they must not mutate shared state.
	ScatterValue func(src uint64, srcVal float64) float64
	// ApplyVertex, when non-nil, replaces Apply and additionally receives
	// the vertex id, for programs that maintain per-vertex side state.
	ApplyVertex func(v uint64, old, reduced float64) (newVal float64, activate bool)
	// InitialSeeds activates the starting frontier of a from-scratch run.
	InitialSeeds func(ctx SeedContext)
	// SeedInconsistent activates the vertices whose properties a batch
	// update may have invalidated, starting an incremental run.
	SeedInconsistent func(batch []Edge, ctx SeedContext)
}

// validateProgram panics early on an unusable program (nil hot-path hooks
// would otherwise fail deep inside an iteration).
func validateProgram(p Program) error {
	switch {
	case p.InitVertex == nil:
		return errField("InitVertex")
	case p.ProcessEdge == nil:
		return errField("ProcessEdge")
	case p.Reduce == nil:
		return errField("Reduce")
	case p.Apply == nil && p.ApplyVertex == nil:
		return errField("Apply (or ApplyVertex)")
	case p.InitialSeeds == nil:
		return errField("InitialSeeds")
	case p.SeedInconsistent == nil:
		return errField("SeedInconsistent")
	}
	return nil
}

type programFieldError string

func errField(f string) error { return programFieldError(f) }

func (e programFieldError) Error() string {
	return "engine: program is missing required hook " + string(e)
}
