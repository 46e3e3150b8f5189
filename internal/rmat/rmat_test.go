package rmat

import (
	"testing"
	"testing/quick"
)

func TestParamsValidation(t *testing.T) {
	cases := []Params{
		{Scale: 0, NumEdges: 10, A: 0.57, B: 0.19, C: 0.19},
		{Scale: 41, NumEdges: 10, A: 0.57, B: 0.19, C: 0.19},
		{Scale: 10, NumEdges: 10, A: 0, B: 0.19, C: 0.19},
		{Scale: 10, NumEdges: 10, A: 0.6, B: 0.3, C: 0.3},
		{Scale: 10, NumEdges: 10, A: 0.57, B: 0.19, C: 0.19, Noise: 0.9},
		// 2^44 edges: no []Edge can hold them.
		Graph500Params(40, 16, 1),
		// 2^64 edges: the count saturates rather than wrapping to 0.
		Graph500Params(40, 1<<24, 1),
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, p)
		}
		if _, err := Generate(p); err == nil {
			t.Fatalf("case %d generated: %+v", i, p)
		}
		if _, err := GenerateBatches(p, 1000); err == nil {
			t.Fatalf("case %d generated in batches: %+v", i, p)
		}
	}
	if err := Graph500Params(10, 16, 1).Validate(); err != nil {
		t.Fatalf("Graph500 params rejected: %v", err)
	}
	// A symmetric stream holds two entries per edge, so half the largest
	// slice is its limit.
	half := Graph500Params(10, 16, 1)
	half.NumEdges = maxEdges/2 + 1
	if err := half.Validate(); err != nil {
		t.Fatalf("%d edges rejected: %v", half.NumEdges, err)
	}
	if _, err := GenerateSymmetric(half); err == nil {
		t.Fatalf("%d edges accepted for a symmetric stream", half.NumEdges)
	}
}

func TestGraph500Params(t *testing.T) {
	p := Graph500Params(12, 16, 7)
	if p.NumVertices() != 4096 {
		t.Fatalf("NumVertices = %d", p.NumVertices())
	}
	if p.NumEdges != 4096*16 {
		t.Fatalf("NumEdges = %d", p.NumEdges)
	}
}

func TestDeterminism(t *testing.T) {
	p := Graph500Params(10, 8, 99)
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(p)
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	p.Seed = 100
	c, _ := Generate(p)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestEdgesWithinVertexRange(t *testing.T) {
	p := Graph500Params(9, 10, 3)
	edges, _ := Generate(p)
	n := p.NumVertices()
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			t.Fatalf("edge %v outside vertex range %d", e, n)
		}
		if e.Weight < 1 || e.Weight > 255 {
			t.Fatalf("weight %g outside [1,255]", e.Weight)
		}
	}
}

func TestUnweightedGeneration(t *testing.T) {
	p := Graph500Params(8, 4, 3)
	p.MaxWeight = 0
	edges, _ := Generate(p)
	for _, e := range edges {
		if e.Weight != 1 {
			t.Fatalf("unweighted edge has weight %g", e.Weight)
		}
	}
}

func TestSkewedDegreeDistribution(t *testing.T) {
	// RMAT with Graph500 parameters must produce a heavily skewed source
	// distribution: the top 1% of sources should own far more than 1% of
	// the edges.
	p := Graph500Params(12, 16, 5)
	edges, _ := Generate(p)
	deg := make(map[uint64]int)
	for _, e := range edges {
		deg[e.Src]++
	}
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(len(edges)) / float64(len(deg))
	if float64(maxDeg) < 10*avg {
		t.Fatalf("max degree %d not ≫ avg %.1f — distribution not skewed", maxDeg, avg)
	}
}

func TestStreamingMatchesMaterialized(t *testing.T) {
	p := Graph500Params(8, 8, 77)
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := Generate(p)
	if g.Remaining() != p.NumEdges {
		t.Fatalf("Remaining = %d", g.Remaining())
	}
	for i := 0; ; i++ {
		e, ok := g.Next()
		if !ok {
			if i != len(all) {
				t.Fatalf("stream ended at %d, want %d", i, len(all))
			}
			break
		}
		if e != all[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	if _, ok := g.Next(); ok {
		t.Fatalf("generator produced past NumEdges")
	}
}

func TestGenerateBatches(t *testing.T) {
	p := Graph500Params(8, 8, 77)
	batches, err := GenerateBatches(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i, b := range batches {
		if i < len(batches)-1 && len(b) != 1000 {
			t.Fatalf("batch %d has %d edges", i, len(b))
		}
		total += len(b)
	}
	if uint64(total) != p.NumEdges {
		t.Fatalf("batches hold %d edges, want %d", total, p.NumEdges)
	}
	// The batches share one array; appending to one must not write into
	// the next.
	next := batches[1][0]
	_ = append(batches[0], Edge{Src: 1 << 40})
	if batches[1][0] != next {
		t.Fatalf("appending to batch 0 overwrote batch 1")
	}
	if _, err := GenerateBatches(p, 0); err == nil {
		t.Fatalf("zero batch size accepted")
	}
	if _, err := GenerateBatches(Params{}, 10); err == nil {
		t.Fatalf("invalid params accepted")
	}
}

func TestNoiseKeepsRangeAndChangesStream(t *testing.T) {
	p := Graph500Params(10, 8, 5)
	noisy := p
	noisy.Noise = 0.1
	a, _ := Generate(p)
	b, err := Generate(noisy)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumVertices()
	diff := false
	for i := range b {
		if b[i].Src >= n || b[i].Dst >= n {
			t.Fatalf("noisy edge %v out of range", b[i])
		}
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst {
			diff = true
		}
	}
	if !diff {
		t.Fatalf("noise had no effect on the stream")
	}
}

func TestQuickAllEdgesInRange(t *testing.T) {
	prop := func(seed uint64, scaleRaw uint8) bool {
		scale := int(scaleRaw%8) + 4
		p := Graph500Params(scale, 4, seed)
		edges, err := Generate(p)
		if err != nil {
			return false
		}
		n := p.NumVertices()
		for _, e := range edges {
			if e.Src >= n || e.Dst >= n {
				return false
			}
		}
		return uint64(len(edges)) == p.NumEdges
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
