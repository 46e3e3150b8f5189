// Package rmat implements the Graph500 R-MAT recursive-matrix graph
// generator the paper uses for its synthetic datasets ("Introducing the
// Graph 500", Murphy et al., CUG 2010). It also generates the
// power-law-with-dense-communities stand-in graphs this reproduction
// substitutes for the two offline-unavailable real-world datasets (see
// DESIGN.md, Substitutions).
package rmat

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// Params describes one R-MAT generation run.
type Params struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// NumEdges is how many edge tuples to emit (duplicates possible, as
	// with the Graph500 generator; streaming duplicates into the structures
	// exercises their FIND/update paths exactly like the paper's batches).
	NumEdges uint64
	// A, B, C are the recursive quadrant probabilities (D = 1-A-B-C). The
	// Graph500 defaults are 0.57, 0.19, 0.19 (D = 0.05).
	A, B, C float64
	// Seed makes generation deterministic.
	Seed uint64
	// MaxWeight bounds the uniformly drawn edge weights [1, MaxWeight].
	// Zero means unweighted (all weights 1).
	MaxWeight uint32
	// Noise perturbs the quadrant probabilities per level (SKG noise),
	// which smooths the degree distribution. 0 disables.
	Noise float64
}

// Graph500Params returns the standard Graph500 parameters at the given
// scale with edgeFactor edges per vertex. An edge count past 2^64 - 1
// saturates there, which Validate rejects.
func Graph500Params(scale int, edgeFactor uint64, seed uint64) Params {
	hi, edges := bits.Mul64(uint64(1)<<uint(scale), edgeFactor)
	if hi != 0 {
		edges = math.MaxUint64
	}
	return Params{
		Scale:     scale,
		NumEdges:  edges,
		A:         0.57,
		B:         0.19,
		C:         0.19,
		Seed:      seed,
		MaxWeight: 255,
	}
}

// maxEdges is the longest []Edge the Go runtime allocates: one object
// spans at most 2^48 bytes on a 64-bit host (the heap's address bits) and
// 2^32 on a 32-bit one.
const maxEdges = uint64(1<<(32+16*(^uint(0)>>63))) / uint64(unsafe.Sizeof(Edge{}))

// Validate reports whether the parameters are usable.
func (p Params) Validate() error { return p.validate(1) }

// validate checks p for an output of copies entries per generated edge.
func (p Params) validate(copies uint64) error {
	if p.Scale <= 0 || p.Scale > 40 {
		return fmt.Errorf("rmat: scale %d out of range (1..40)", p.Scale)
	}
	if p.A <= 0 || p.B < 0 || p.C < 0 || p.A+p.B+p.C >= 1 {
		return fmt.Errorf("rmat: invalid quadrant probabilities a=%g b=%g c=%g", p.A, p.B, p.C)
	}
	if p.Noise < 0 || p.Noise > 0.5 {
		return fmt.Errorf("rmat: noise %g out of range (0..0.5)", p.Noise)
	}
	if p.NumEdges > maxEdges/copies {
		return fmt.Errorf("rmat: %d edges exceed the largest edge slice (%d entries, %d per edge)",
			p.NumEdges, maxEdges, copies)
	}
	return nil
}

// NumVertices returns 2^Scale.
func (p Params) NumVertices() uint64 { return 1 << uint(p.Scale) }

// Edge is one generated edge tuple.
type Edge struct {
	Src    uint64
	Dst    uint64
	Weight float32
}

// gamma is splitmix64's increment. Draw k (from 0) of the stream seeded s
// is mix(s + (k+1)·gamma), so any draw is reachable without the ones
// before it.
const gamma = 0x9e3779b97f4a7c15

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draws is how many splitmix64 outputs one edge consumes: one per level
// (five with Noise), plus one for the weight.
func (p Params) draws() uint64 {
	d := uint64(p.Scale)
	if p.Noise > 0 {
		d *= 5
	}
	if p.MaxWeight > 0 {
		d++
	}
	return d
}

// threshold turns a quadrant bound t into an integer one: a draw
// r = k/2^53 has r >= t exactly when k > ceil(t·2^53) - 1, which is -1
// (as an int64) for t = 0.
func threshold(t float64) uint64 { return uint64(math.Ceil(t*(1<<53))) - 1 }

// above is 1 when k > b and 0 otherwise, as int64s, without a branch
// (|k|, |b| < 2^62).
func above(k, b uint64) uint64 { return (b - k) >> 63 }

// fill writes edges lo, lo+1, ... of p's stream into out, copies entries
// per edge: the edge, then its reverse when copies is 2.
func fill(out []Edge, p Params, lo uint64, copies int) {
	s := p.Seed + lo*p.draws()*gamma
	// The serial descent's bounds: a, a+b, (a+b)+c.
	ta, tab, tabc := threshold(p.A), threshold(p.A+p.B), threshold(p.A+p.B+p.C)
	for i := 0; i < len(out); i += copies {
		var src, dst uint64
		if p.Noise == 0 {
			src, dst, s = descend(0, 0, s, p.Scale, ta, tab, tabc)
		} else {
			for l := 0; l < p.Scale; l++ {
				na, nab, nabc, ns := noisyBounds(p, s)
				src, dst, s = descend(src, dst, ns, 1, na, nab, nabc)
			}
		}
		w := float32(1)
		if p.MaxWeight > 0 {
			s += gamma
			w = float32(uint32(mix(s)%uint64(p.MaxWeight)) + 1)
		}
		out[i] = Edge{Src: src, Dst: dst, Weight: w}
		if copies == 2 {
			out[i+1] = Edge{Src: dst, Dst: src, Weight: w}
		}
	}
}

// descend appends levels quadrant choices to (src, dst), one draw each
// from PRNG state s against the integer bounds ta, tab and tabc, and
// returns them with the state after its draws. Quadrants a, b, c and d
// set (src, dst) bits (0,0), (0,1), (1,0) and (1,1).
func descend(src, dst, s uint64, levels int, ta, tab, tabc uint64) (uint64, uint64, uint64) {
	for ; levels > 0; levels-- {
		s += gamma
		k := mix(s) >> 11
		hi := above(k, tab)
		src = src<<1 | hi
		dst = dst<<1 | (above(k, ta) ^ hi ^ above(k, tabc))
	}
	return src, dst, s
}

// noisyBounds draws one level's SKG-noise quadrant bounds from PRNG state
// s and returns them with the state after its draws. It perturbs each
// quadrant probability multiplicatively and renormalizes, per the
// smoothed Kronecker generator, in the original serial generator's float
// order, so the stream stays the same.
func noisyBounds(p Params, s uint64) (ta, tab, tabc, next uint64) {
	unit := func() float64 {
		s += gamma
		return float64(mix(s)>>11) / float64(1<<53)
	}
	d := 1 - p.A - p.B - p.C
	la := p.A * (1 - p.Noise + 2*p.Noise*unit())
	lb := p.B * (1 - p.Noise + 2*p.Noise*unit())
	lc := p.C * (1 - p.Noise + 2*p.Noise*unit())
	ld := d * (1 - p.Noise + 2*p.Noise*unit())
	sum := la + lb + lc + ld
	la /= sum
	lb /= sum
	lc /= sum
	return threshold(la), threshold(la + lb), threshold(la + lb + lc), s
}

// minPartEdges is the smallest part Generate gives a goroutine of its
// own. BenchmarkGeneratePartCutoff places it: on two processors a second
// part pays from two parts of 2,048 edges, and breaks even at two of 1,024.
const minPartEdges = 2048

// partsPerProc is how many parts each processor gets. More parts than
// processors even out a part that starts late or faults in more fresh
// pages: BenchmarkGenerateParts reads about 48 ns/edge at 8 parts on two
// processors against 57 at 2.
const partsPerProc = 4

// partCount is how many parts Generate splits n edges into: one on one
// processor, else partsPerProc per processor, each of minPartEdges or
// more.
func partCount(n uint64) int {
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		return 1
	}
	return int(min(uint64(partsPerProc*procs), max(n/minPartEdges, 1)))
}

// Generate materializes all edges of one parameter set. It fills the
// output in contiguous parts, one goroutine each, every part starting its
// own splitmix64 counter; the edges are those of one serial stream,
// whatever the part count.
func Generate(p Params) ([]Edge, error) { return generate(p, 1, partCount(p.NumEdges)) }

// GenerateSymmetric materializes the stream of Generate with each edge
// followed by its reverse (same weight): 2·NumEdges entries.
func GenerateSymmetric(p Params) ([]Edge, error) { return generate(p, 2, partCount(p.NumEdges)) }

// generate fills copies entries per edge of p's stream in parts
// contiguous parts, the first on the caller. The others run on plain
// goroutines, joined before it returns: the core package's helper pool is
// out of reach, because core's tests import this package.
func generate(p Params, copies, parts int) ([]Edge, error) {
	if err := p.validate(uint64(copies)); err != nil {
		return nil, err
	}
	n, c := p.NumEdges, uint64(copies)
	out := make([]Edge, n*c)
	var wg sync.WaitGroup
	for j := 1; j < parts; j++ {
		lo, hi := n*uint64(j)/uint64(parts), n*uint64(j+1)/uint64(parts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(out[lo*c:hi*c], p, lo, copies)
		}()
	}
	fill(out[:n/uint64(parts)*c], p, 0, copies)
	wg.Wait()
	return out, nil
}

// GenerateBatches materializes edges pre-split into batches of batchSize
// (the paper loads every dataset in 1M-edge batches).
func GenerateBatches(p Params, batchSize int) ([][]Edge, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("rmat: batch size %d must be positive", batchSize)
	}
	es, err := Generate(p)
	if err != nil {
		return nil, err
	}
	return Batches(es, batchSize), nil
}

// Batches cuts es into consecutive batches of size edges (the last may be
// shorter). Each batch's capacity ends at its length, so appending to one
// copies it rather than overwriting the next.
func Batches(es []Edge, size int) [][]Edge {
	out := make([][]Edge, 0, (len(es)+size-1)/size)
	for lo := 0; lo < len(es); lo += size {
		hi := min(lo+size, len(es))
		out = append(out, es[lo:hi:hi])
	}
	return out
}
