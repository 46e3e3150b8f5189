package rmat

import (
	"fmt"
	"runtime"
	"testing"
)

// prng is a splitmix64 stream.
type prng struct{ s uint64 }

func newPRNG(seed uint64) *prng { return &prng{s: seed} }

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *prng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

func (r *prng) uint32n(n uint32) uint32 {
	return uint32(r.next() % uint64(n))
}

// Generator is the serial oracle: the original one-edge-at-a-time R-MAT
// stream, kept verbatim so Generate's counter-addressed parts can be
// checked against it.
type Generator struct {
	p   Params
	rng *prng
	n   uint64 // edges emitted so far
}

// NewGenerator validates the parameters and returns a streaming generator.
func NewGenerator(p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Generator{p: p, rng: newPRNG(p.Seed)}, nil
}

// Next returns the next edge tuple and false once NumEdges have been
// produced.
func (g *Generator) Next() (Edge, bool) {
	if g.n >= g.p.NumEdges {
		return Edge{}, false
	}
	g.n++
	src, dst := g.sample()
	w := float32(1)
	if g.p.MaxWeight > 0 {
		w = float32(g.rng.uint32n(g.p.MaxWeight) + 1)
	}
	return Edge{Src: src, Dst: dst, Weight: w}, true
}

// Remaining reports how many edges the generator will still produce.
func (g *Generator) Remaining() uint64 { return g.p.NumEdges - g.n }

// sample draws one (src, dst) pair by recursive quadrant descent.
func (g *Generator) sample() (uint64, uint64) {
	a, b, c := g.p.A, g.p.B, g.p.C
	var src, dst uint64
	for level := 0; level < g.p.Scale; level++ {
		la, lb, lc := a, b, c
		if g.p.Noise > 0 {
			// Perturb each quadrant probability multiplicatively and
			// renormalize, per the smoothed Kronecker generator.
			d := 1 - a - b - c
			la *= 1 - g.p.Noise + 2*g.p.Noise*g.rng.float64()
			lb *= 1 - g.p.Noise + 2*g.p.Noise*g.rng.float64()
			lc *= 1 - g.p.Noise + 2*g.p.Noise*g.rng.float64()
			ld := d * (1 - g.p.Noise + 2*g.p.Noise*g.rng.float64())
			sum := la + lb + lc + ld
			la /= sum
			lb /= sum
			lc /= sum
		}
		r := g.rng.float64()
		src <<= 1
		dst <<= 1
		switch {
		case r < la:
			// top-left: no bits set
		case r < la+lb:
			dst |= 1
		case r < la+lb+lc:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
	}
	return src, dst
}

// serial drains a fresh oracle.
func serial(t testing.TB, p Params) []Edge {
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Edge, 0, p.NumEdges)
	for e, ok := g.Next(); ok; e, ok = g.Next() {
		out = append(out, e)
	}
	return out
}

// insertCore is the benchmark's insert-core stream on seed 1:
// RMAT_1M_10M at divisor 8, seeded seed·0x9e3779b97f4a7c15 + 0x1c.
var insertCore = Params{
	Scale: 17, NumEdges: 1_250_000, A: 0.57, B: 0.19, C: 0.19,
	Seed: 1*0x9e3779b97f4a7c15 + 0x1c, MaxWeight: 255,
}

// requireSame fails unless got is want, with copies entries per edge:
// the edge, then its reverse when copies is 2.
func requireSame(t *testing.T, got, want []Edge, copies int) {
	t.Helper()
	if len(got) != len(want)*copies {
		t.Fatalf("%d entries, want %d", len(got), len(want)*copies)
	}
	for i, e := range want {
		if got[i*copies] != e {
			t.Fatalf("edge %d = %+v, serial %+v", i, got[i*copies], e)
		}
		if r := (Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight}); copies == 2 && got[2*i+1] != r {
			t.Fatalf("reverse of edge %d = %+v, want %+v", i, got[2*i+1], r)
		}
	}
}

// TestGenerateMatchesSerial checks Generate and GenerateSymmetric byte
// for byte against the serial oracle, at GOMAXPROCS 1, 2 and 4 and at
// fixed part counts, over edge counts sized from the part cutoff.
func TestGenerateMatchesSerial(t *testing.T) {
	g500 := func(n uint64) Params {
		p := Graph500Params(12, 1, 7)
		p.NumEdges = n
		return p
	}
	unweighted := Graph500Params(12, 16, 7)
	unweighted.MaxWeight = 0
	cases := []struct {
		name string
		p    Params
	}{
		{"insert-core", insertCore},
		// The Hollywood-2009 stand-in at divisor 128.
		{"hollywood", Params{Scale: 14, NumEdges: 113891327 / 2 / 128,
			A: 0.45, B: 0.22, C: 0.22, Seed: 105, MaxWeight: 255, Noise: 0.05}},
		{"unweighted", unweighted},
		{"one-edge", g500(1)},
		{"below-cutoff", g500(2*minPartEdges - 1)},
		{"at-cutoff", g500(2 * minPartEdges)},
		// Four parts or more, with a remainder at every part count from 2
		// to 8 (840 is their least common multiple).
		{"uneven", g500(840*(4*minPartEdges/840+1) + 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := serial(t, tc.p)
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got, err := Generate(tc.p)
				sym, symErr := GenerateSymmetric(tc.p)
				parts := partCount(tc.p.NumEdges)
				runtime.GOMAXPROCS(prev)
				if err != nil || symErr != nil {
					t.Fatal(err, symErr)
				}
				requireSame(t, got, want, 1)
				requireSame(t, sym, want, 2)
				if split := procs > 1 && tc.p.NumEdges >= 2*minPartEdges; split != (parts > 1) {
					t.Fatalf("GOMAXPROCS %d: %d edges ran in %d parts", procs, tc.p.NumEdges, parts)
				}
			}
			for _, parts := range []int{3, 7} {
				if uint64(parts) <= tc.p.NumEdges {
					got, err := generate(tc.p, 1, parts)
					if err != nil {
						t.Fatal(err)
					}
					requireSame(t, got, want, 1)
				}
			}
		})
	}
}

// BenchmarkGenerate times Generate on the insert-core stream.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(insertCore); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*insertCore.NumEdges), "ns/edge")
}

// BenchmarkGenerateParts times the insert-core stream at fixed part
// counts, to choose how many parts Generate makes per processor.
func BenchmarkGenerateParts(b *testing.B) {
	for _, parts := range []int{1, 2, 3, 4, 6, 8, 16} {
		b.Run(fmt.Sprint(parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				generate(insertCore, 1, parts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*insertCore.NumEdges), "ns/edge")
		})
	}
}

// BenchmarkGeneratePartCutoff times short streams in one part and in two,
// to place minPartEdges where the second part starts to pay.
func BenchmarkGeneratePartCutoff(b *testing.B) {
	for _, n := range []uint64{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15} {
		p := insertCore
		p.NumEdges = n
		for _, parts := range []int{1, 2} {
			b.Run(fmt.Sprintf("%d/%d", n, parts), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					generate(p, 1, parts)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*n), "ns/edge")
			})
		}
	}
}
