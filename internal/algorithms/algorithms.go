// Package algorithms provides the three benchmark vertex programs of the
// paper's evaluation — breadth-first search, single-source shortest paths
// and (weakly) connected components — expressed in the engine's
// edge-centric GAS form, together with the per-algorithm "Set Inconsistency
// Vertices" rules of Sec. IV.C.
package algorithms

import (
	"math"

	"graphtinker/internal/engine"
)

// Unreached is the property of a vertex no path has reached yet in BFS and
// SSSP.
var Unreached = math.Inf(1)

// BFS returns the breadth-first-search program rooted at root: vertex
// properties converge to hop distances from the root. The inconsistency
// rule follows the paper: a batch invalidates the source vertices of its
// edges (a new out-edge can only shorten paths through its source), so
// reached batch-edge sources re-scatter.
func BFS(root uint64) engine.Program {
	return engine.Program{
		Name:       "bfs",
		InitVertex: func(v uint64) float64 { return Unreached },
		ProcessEdge: func(srcVal float64, w float32) float64 {
			return srcVal + 1
		},
		Reduce: minReduce,
		Apply: func(old, reduced float64) (float64, bool) {
			if reduced < old {
				return reduced, true
			}
			return old, false
		},
		InitialSeeds: func(ctx engine.SeedContext) {
			seedRoot(ctx, root)
		},
		SeedInconsistent: func(batch []engine.Edge, ctx engine.SeedContext) {
			seedRoot(ctx, root)
			for _, e := range batch {
				if ctx.Value(e.Src) < Unreached {
					ctx.Activate(e.Src)
				}
			}
		},
	}
}

// SSSP returns the single-source-shortest-paths program rooted at root,
// with non-negative edge weights. Same inconsistency rule as BFS.
func SSSP(root uint64) engine.Program {
	return engine.Program{
		Name:       "sssp",
		InitVertex: func(v uint64) float64 { return Unreached },
		ProcessEdge: func(srcVal float64, w float32) float64 {
			return srcVal + float64(w)
		},
		Reduce: minReduce,
		Apply: func(old, reduced float64) (float64, bool) {
			if reduced < old {
				return reduced, true
			}
			return old, false
		},
		InitialSeeds: func(ctx engine.SeedContext) {
			seedRoot(ctx, root)
		},
		SeedInconsistent: func(batch []engine.Edge, ctx engine.SeedContext) {
			seedRoot(ctx, root)
			for _, e := range batch {
				if ctx.Value(e.Src) < Unreached {
					ctx.Activate(e.Src)
				}
			}
		},
	}
}

// minReduce is the Reduce of BFS, SSSP, CC and BFSWithParents. The
// builtin min compiles to inline instructions where math.Min calls an
// assembly routine. The two agree on NaN and signed zeros; they differ
// only on NaN against -Inf, and no message of these programs is -Inf.
func minReduce(a, b float64) float64 { return min(a, b) }

// seedRoot pins the root's distance to zero and (re)activates it. Doing so
// on every incremental run is idempotent and keeps the computation correct
// when the root only appears in a later batch.
func seedRoot(ctx engine.SeedContext, root uint64) {
	if root < ctx.NumVertices() {
		ctx.SetValue(root, 0)
		ctx.Activate(root)
	}
}

// CC returns the connected-components label-propagation program: every
// vertex starts with its own id as label and labels propagate along
// out-edges, converging to the minimum label that can reach each vertex.
// On datasets loaded symmetrically (both edge directions stored) this is
// exactly weakly-connected components. Per Sec. IV.C, a batch invalidates
// both endpoints of each edge.
func CC() engine.Program {
	return engine.Program{
		Name:       "cc",
		InitVertex: func(v uint64) float64 { return float64(v) },
		ProcessEdge: func(srcVal float64, w float32) float64 {
			return srcVal
		},
		Reduce: minReduce,
		Apply: func(old, reduced float64) (float64, bool) {
			if reduced < old {
				return reduced, true
			}
			return old, false
		},
		InitialSeeds: func(ctx engine.SeedContext) {
			n := ctx.NumVertices()
			for v := uint64(0); v < n; v++ {
				ctx.Activate(v)
			}
		},
		SeedInconsistent: func(batch []engine.Edge, ctx engine.SeedContext) {
			for _, e := range batch {
				ctx.Activate(e.Src)
				ctx.Activate(e.Dst)
			}
		},
	}
}
