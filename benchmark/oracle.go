package main

import (
	"fmt"
	"math"

	"graphtinker/internal/algorithms"
	"graphtinker/internal/core"
	"graphtinker/internal/testutil"
)

// store is the read surface every workload's checks, read stage and
// analytics stage use; core.GraphTinker and core.Parallel satisfy it.
type store interface {
	testutil.Store
	MaxVertexID() (uint64, bool)
}

// scanTarget is the out-degree wanted of the vertex read bundles walk.
const scanTarget = 1024

// query is one precomputed point lookup with its expected answer.
type query struct {
	src, dst uint64
	w        float32
	hit      bool
}

// oracle is what a workload's final state must equal, computed once per
// run (outside every timed region) by replaying the generated ops through
// testutil.RefGraph. Rounds of one run replay the same ops, so after the
// first round's edge-by-edge comparison the map itself is dropped and the
// later rounds are held to the counts and sampled lookups derived from it.
type oracle struct {
	ref       *testutil.RefGraph
	liveEdges uint64
	maxVertex uint64

	// queries holds whole bundles: bundleFinds lookups each, hits and
	// misses alternating, sources drawn from the stream so they carry its
	// RMAT skew.
	queries []query

	hub       uint64 // highest out-degree vertex of the final state; the BFS root
	hubDegree uint32

	// scan is the high-degree vertex the read bundles walk: the one whose
	// out-degree is nearest scanTarget, so that the walk costs the same
	// whatever the seed made of the hub.
	scan       uint64
	scanDegree uint32

	// Reference BFS from hub over the final edge set.
	bfsReached uint64
	bfsDistSum float64
}

// buildOracle replays ops and samples nBundles read bundles. Candidate
// pairs come from sample; pairs for which unstable returns true (their
// answer changes while reads run) are skipped.
func buildOracle(ops []core.EdgeOp, sample []core.Edge, nBundles int, seed uint64, unstable func(src, dst uint64) bool) (*oracle, error) {
	ref := testutil.NewRefGraph()
	var maxV uint64
	for _, op := range ops {
		if op.Del {
			ref.Delete(op.Src, op.Dst)
		} else {
			ref.Insert(op.Src, op.Dst, op.Weight)
		}
		maxV = max(maxV, op.Src, op.Dst)
	}
	o := &oracle{ref: ref, liveEdges: ref.NumEdges(), maxVertex: maxV}
	if o.liveEdges == 0 || len(sample) == 0 {
		return nil, fmt.Errorf("oracle: empty final state")
	}
	gap := func(d uint32) uint32 { return max(d, scanTarget) - min(d, scanTarget) }
	for v, adj := range ref.Adj {
		d := uint32(len(adj))
		if d > o.hubDegree || (d == o.hubDegree && v < o.hub) {
			o.hub, o.hubDegree = v, d
		}
		if o.scanDegree == 0 || gap(d) < gap(o.scanDegree) || (gap(d) == gap(o.scanDegree) && v < o.scan) {
			o.scan, o.scanDegree = v, d
		}
	}

	rng := testutil.Rand{S: seed ^ 0x5eed}
	want := nBundles * bundleFinds
	o.queries = make([]query, 0, want)
	for tries := 0; len(o.queries) < want; tries++ {
		if tries > 200*want {
			return nil, fmt.Errorf("oracle: could not sample %d stable lookups", want)
		}
		e := sample[rng.Intn(len(sample))]
		if len(o.queries)%2 == 0 { // hit
			w, ok := ref.Find(e.Src, e.Dst)
			if !ok || (unstable != nil && unstable(e.Src, e.Dst)) {
				continue
			}
			o.queries = append(o.queries, query{src: e.Src, dst: e.Dst, w: w, hit: true})
			continue
		}
		dst := rng.Next() % (maxV + 1)
		if _, ok := ref.Find(e.Src, dst); ok || (unstable != nil && unstable(e.Src, dst)) {
			continue
		}
		o.queries = append(o.queries, query{src: e.Src, dst: dst})
	}

	edges := o.liveEdgeList()
	dist := algorithms.ReferenceBFS(maxV+1, edges, o.hub)
	o.bfsReached, o.bfsDistSum = bfsDigest(dist)
	return o, nil
}

func (o *oracle) liveEdgeList() []core.Edge {
	res := o.ref.Edges()
	out := make([]core.Edge, len(res))
	for i, e := range res {
		out[i] = core.Edge(e)
	}
	return out
}

// bfsDigest reduces a distance labelling to (reached vertices, sum of
// finite distances) so labellings of different lengths compare.
func bfsDigest(dist []float64) (reached uint64, sum float64) {
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			reached++
			sum += d
		}
	}
	return reached, sum
}

// checkState counts how st differs from the oracle's final state: the
// edge count always, and every edge while the reference map is still
// held. Each unit it returns is one failed check.
func (o *oracle) checkState(st store, what string, fails *failLog) {
	if n := st.NumEdges(); n != o.liveEdges {
		fails.addf("%s: %d live edges, oracle has %d", what, n, o.liveEdges)
	}
	if o.ref == nil {
		return
	}
	var seen uint64
	st.ForEachEdge(func(src, dst uint64, w float32) bool {
		seen++
		if rw, ok := o.ref.Find(src, dst); !ok || rw != w {
			fails.addf("%s: edge %d->%d w=%g not in oracle (oracle: %g,%v)", what, src, dst, w, rw, ok)
		}
		return true
	})
	if seen != o.liveEdges {
		fails.addf("%s: scan visited %d edges, oracle has %d", what, seen, o.liveEdges)
	}
}

// checkLookups runs every sampled lookup once, untimed.
func (o *oracle) checkLookups(st store, what string, fails *failLog) {
	for _, q := range o.queries {
		if w, ok := st.FindEdge(q.src, q.dst); ok != q.hit || (ok && w != q.w) {
			fails.addf("%s: FindEdge(%d,%d) = %g,%v want %g,%v", what, q.src, q.dst, w, ok, q.w, q.hit)
		}
	}
}

func (o *oracle) checkBFS(values []float64, what string, fails *failLog) {
	reached, sum := bfsDigest(values)
	if reached != o.bfsReached || sum != o.bfsDistSum {
		fails.addf("%s: BFS reached %d (dist sum %g), reference %d (%g)", what, reached, sum, o.bfsReached, o.bfsDistSum)
	}
}

// failLog counts failed operations and keeps the first few messages.
type failLog struct {
	n    int
	msgs []string
}

func (f *failLog) addf(format string, args ...any) {
	f.n++
	if len(f.msgs) < 10 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failLog) merge(other failLog) {
	f.n += other.n
	for _, m := range other.msgs {
		if len(f.msgs) < 10 {
			f.msgs = append(f.msgs, m)
		}
	}
}
