package algorithms

// BFS with parent tracking — the output format the Graph500 benchmark
// actually validates (a parent tree, not just distances). The engine
// carries one float64 property per vertex, so the program packs
// (distance, parent) lexicographically into the 52-bit mantissa:
// value = dist * 2^parentBits + parent. Min-reducing packed values yields
// the smallest distance with the smallest parent id as a deterministic
// tie-break, so results are identical across engines and modes.

import (
	"fmt"
	"math"

	"graphtinker/internal/engine"
)

const (
	// parentBits bounds vertex ids in the packed representation; with
	// 32 parent bits and float64's 53-bit integer range, distances up to
	// 2^20 hops remain exact.
	parentBits   = 32
	parentMask   = 1<<parentBits - 1
	packedFactor = 1 << parentBits
)

// MaxParentTrackedVertices is the largest vertex id BFSWithParents can
// track exactly.
const MaxParentTrackedVertices = uint64(parentMask)

// NoParent marks the root's parent slot and unreached vertices.
const NoParent = uint64(parentMask)

// packDistParent encodes (dist, parent); unpackDistParent reverses it.
func packDistParent(dist uint64, parent uint64) float64 {
	return float64(dist)*packedFactor + float64(parent&parentMask)
}

func unpackDistParent(v float64) (dist uint64, parent uint64) {
	if math.IsInf(v, 1) {
		return math.MaxUint64, NoParent
	}
	u := uint64(v)
	return u >> parentBits, u & parentMask
}

// BFSWithParents returns a BFS program whose converged values decode to
// (hop distance, parent id) via DecodeBFSParents. Vertex ids must stay
// below MaxParentTrackedVertices.
//
// Distances are identical across engines, modes and batch splits. The
// parent choice is one valid tree edge but may differ between runs (a
// later batch can deliver an equal-distance parent that Apply ignores);
// that matches the Graph500 position — any parent tree consistent with
// the distances validates.
func BFSWithParents(root uint64) engine.Program {
	return engine.Program{
		Name:       "bfs-parents",
		InitVertex: func(v uint64) float64 { return Unreached },
		ScatterValue: func(src uint64, srcVal float64) float64 {
			// The message a vertex sends carries its own distance and
			// names itself as the parent candidate.
			dist, _ := unpackDistParent(srcVal)
			return packDistParent(dist, src)
		},
		ProcessEdge: func(scattered float64, w float32) float64 {
			// One more hop: bump the distance field, keep the parent.
			return scattered + packedFactor
		},
		Reduce: minReduce,
		Apply: func(old, reduced float64) (float64, bool) {
			// Compare by distance only: a different parent at the same
			// distance must not churn the frontier forever, and min-reduce
			// already picked the smallest parent among this iteration's
			// messages.
			oldDist, _ := unpackDistParent(old)
			newDist, _ := unpackDistParent(reduced)
			if newDist < oldDist {
				return reduced, true
			}
			return old, false
		},
		InitialSeeds: func(ctx engine.SeedContext) {
			if root < ctx.NumVertices() {
				ctx.SetValue(root, packDistParent(0, NoParent))
				ctx.Activate(root)
			}
		},
		SeedInconsistent: func(batch []engine.Edge, ctx engine.SeedContext) {
			if root < ctx.NumVertices() {
				ctx.SetValue(root, packDistParent(0, NoParent))
				ctx.Activate(root)
			}
			for _, e := range batch {
				if ctx.Value(e.Src) < Unreached {
					ctx.Activate(e.Src)
				}
			}
		},
	}
}

// DecodeBFSParents converts the program's converged property array into
// distance and parent arrays (Unreached distance -> NoParent).
func DecodeBFSParents(values []float64) (dist []float64, parent []uint64) {
	dist = make([]float64, len(values))
	parent = make([]uint64, len(values))
	for v, packed := range values {
		if math.IsInf(packed, 1) {
			dist[v] = Unreached
			parent[v] = NoParent
			continue
		}
		d, p := unpackDistParent(packed)
		dist[v] = float64(d)
		parent[v] = p
	}
	return dist, parent
}

// ValidateParentTree performs the Graph500 parent-tree audit: the root is
// its own tree's origin (NoParent), every reached non-root vertex has a
// reached parent exactly one hop closer with an actual edge parent->child,
// and unreached vertices have no parent.
func ValidateParentTree(dist []float64, parent []uint64, edges []engine.Edge, root uint64) []string {
	var violations []string
	report := func(format string, args ...any) {
		if len(violations) < 20 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}
	n := uint64(len(dist))
	type key struct{ s, d uint64 }
	edgeSet := make(map[key]struct{}, len(edges))
	for _, e := range edges {
		edgeSet[key{e.Src, e.Dst}] = struct{}{}
	}
	for v := uint64(0); v < n; v++ {
		reached := !math.IsInf(dist[v], 1)
		switch {
		case v == root:
			if parent[v] != NoParent && reached {
				report("root %d has parent %d", v, parent[v])
			}
		case !reached:
			if parent[v] != NoParent {
				report("unreached vertex %d has parent %d", v, parent[v])
			}
		default:
			p := parent[v]
			if p == NoParent || p >= n {
				report("reached vertex %d lacks a valid parent", v)
				continue
			}
			if math.IsInf(dist[p], 1) || dist[p]+1 != dist[v] {
				report("vertex %d at %g has parent %d at %g", v, dist[v], p, dist[p])
			}
			if _, ok := edgeSet[key{p, v}]; !ok {
				report("parent edge (%d,%d) not in the graph", p, v)
			}
		}
	}
	return violations
}
