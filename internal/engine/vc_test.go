package engine

import (
	"testing"

	"graphtinker/internal/core"
)

// testRand is a splitmix64 stream for deterministic test graphs.
type testRand struct{ s uint64 }

func (r *testRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func mirroredStore(t *testing.T, edges []Edge) *core.Mirrored {
	t.Helper()
	m := core.MustNewMirrored(core.DefaultConfig())
	m.InsertBatch(edges)
	return m
}

func TestVCMatchesECOnPath(t *testing.T) {
	edges := pathEdges(8)
	m := mirroredStore(t, edges)
	vc := MustNewVC(m, minProgram(), Options{})
	res := vc.RunFromScratch()
	if !res.Converged {
		t.Fatalf("VC did not converge")
	}
	ec := MustNew(newStore(t, edges), minProgram(), Options{Mode: FullProcessing})
	ec.RunFromScratch()
	for v := uint64(0); v <= 8; v++ {
		if vc.Value(v) != ec.Value(v) {
			t.Fatalf("dist[%d]: VC %g, EC %g", v, vc.Value(v), ec.Value(v))
		}
	}
}

func TestVCMatchesECOnRandomGraph(t *testing.T) {
	// A few dozen random graphs, every vertex compared.
	for seed := uint64(1); seed <= 20; seed++ {
		r := &testRand{s: seed}
		var edges []Edge
		for i := 0; i < 400; i++ {
			edges = append(edges, te(uint64(r.intn(64)), uint64(r.intn(64))))
		}
		m := mirroredStore(t, edges)
		vc := MustNewVC(m, minProgram(), Options{})
		vc.RunFromScratch()
		ec := MustNew(newStore(t, edges), minProgram(), Options{Mode: Hybrid})
		ec.RunFromScratch()
		if vc.NumVertices() != ec.NumVertices() {
			t.Fatalf("seed %d: vertex spaces differ", seed)
		}
		for v := uint64(0); v < vc.NumVertices(); v++ {
			if vc.Value(v) != ec.Value(v) {
				t.Fatalf("seed %d: dist[%d]: VC %g, EC %g", seed, v, vc.Value(v), ec.Value(v))
			}
		}
	}
}

func TestVCIncrementalAcrossBatches(t *testing.T) {
	all := pathEdges(20)
	m := core.MustNewMirrored(core.DefaultConfig())
	vc := MustNewVC(m, minProgram(), Options{})
	for i := 0; i < len(all); i += 5 {
		batch := all[i : i+5]
		m.InsertBatch(batch)
		res := vc.RunAfterBatch(batch)
		if !res.Converged {
			t.Fatalf("batch %d did not converge", i/5)
		}
	}
	for v := uint64(0); v <= 20; v++ {
		if vc.Value(v) != float64(v) {
			t.Fatalf("dist[%d] = %g", v, vc.Value(v))
		}
	}
}

func TestVCValidation(t *testing.T) {
	m := core.MustNewMirrored(core.DefaultConfig())
	bad := minProgram()
	bad.ProcessEdge = nil
	if _, err := NewVC(m, bad, Options{}); err == nil {
		t.Fatalf("invalid program accepted")
	}
	if _, err := NewVC(m, minProgram(), Options{MaxIterations: -1}); err == nil {
		t.Fatalf("negative guard accepted")
	}
	if _, err := NewVC(m, minProgram(), Options{Mode: Mode(9)}); err == nil {
		t.Fatalf("bogus mode accepted")
	}
	if _, err := NewVC(m, minProgram(), Options{Threshold: -1}); err == nil {
		t.Fatalf("negative threshold accepted")
	}
}

func TestVCMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNewVC did not panic")
		}
	}()
	MustNewVC(core.MustNewMirrored(core.DefaultConfig()), Program{}, Options{})
}

func TestVCGuardTrips(t *testing.T) {
	m := mirroredStore(t, []Edge{te(0, 1), te(1, 0)})
	p := minProgram()
	p.Apply = func(old, reduced float64) (float64, bool) { return reduced, true }
	p.ProcessEdge = func(srcVal float64, w float32) float64 { return 0 }
	vc := MustNewVC(m, p, Options{MaxIterations: 5})
	res := vc.RunFromScratch()
	if res.Converged || len(res.Iterations) != 5 {
		t.Fatalf("guard did not trip: %+v", res)
	}
}

func TestVCEdgesLoadedIsWholeInEdgeSet(t *testing.T) {
	// The pull model sweeps every in-edge each iteration.
	edges := []Edge{te(0, 1), te(0, 2), te(1, 2)}
	m := mirroredStore(t, edges)
	vc := MustNewVC(m, minProgram(), Options{})
	res := vc.RunFromScratch()
	for _, it := range res.Iterations {
		if it.EdgesLoaded != uint64(len(edges)) {
			t.Fatalf("iteration %d loaded %d edges, want %d", it.Index, it.EdgesLoaded, len(edges))
		}
		if !it.UsedFull {
			t.Fatalf("VC iterations are full sweeps by definition")
		}
	}
	if res.EdgesProcessed >= res.EdgesLoaded {
		t.Fatalf("pull should skip inactive sources")
	}
}

func TestMirroredConsistency(t *testing.T) {
	m := core.MustNewMirrored(core.DefaultConfig())
	m.InsertEdge(1, 2, 5)
	m.InsertEdge(3, 2, 1)
	if m.OutDegree(1) != 1 || m.InDegree(2) != 2 {
		t.Fatalf("degrees wrong: out(1)=%d in(2)=%d", m.OutDegree(1), m.InDegree(2))
	}
	if w, ok := m.FindEdge(1, 2); !ok || w != 5 {
		t.Fatalf("FindEdge = (%g,%v)", w, ok)
	}
	var ins []uint64
	m.ForEachInEdge(2, func(src uint64, w float32) bool {
		ins = append(ins, src)
		return true
	})
	if len(ins) != 2 {
		t.Fatalf("in-edges of 2: %v", ins)
	}
	var outs []uint64
	m.ForEachOutEdge(1, func(dst uint64, w float32) bool {
		outs = append(outs, dst)
		return true
	})
	if len(outs) != 1 || outs[0] != 2 {
		t.Fatalf("out-edges of 1: %v", outs)
	}
	if !m.DeleteEdge(1, 2) {
		t.Fatalf("delete failed")
	}
	if m.InDegree(2) != 1 || m.NumEdges() != 1 {
		t.Fatalf("mirror not kept in sync after delete")
	}
	if m.DeleteEdge(1, 2) {
		t.Fatalf("double delete succeeded")
	}
	n := m.DeleteBatch([]core.Edge{{Src: 3, Dst: 2}})
	if n != 1 || m.NumEdges() != 0 {
		t.Fatalf("DeleteBatch broken")
	}
	count := 0
	m.ForEachEdge(func(src, dst uint64, w float32) bool { count++; return true })
	if count != 0 {
		t.Fatalf("edges remain after deletion")
	}
	if id, ok := m.MaxVertexID(); !ok || id != 3 {
		t.Fatalf("MaxVertexID = (%d,%v)", id, ok)
	}
	if m.Forward() == nil || m.Reverse() == nil {
		t.Fatalf("instance accessors nil")
	}
}
