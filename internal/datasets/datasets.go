// Package datasets is the registry of the six graph datasets of the paper's
// Table 1. The four synthetic RMAT datasets are generated exactly as the
// paper describes (Graph500 RMAT generator). The two real-world datasets
// (hollywood-2009 and kron_g500-logn21 from the UF Sparse Matrix
// Collection) are not reachable offline, so the registry substitutes
// synthetic graphs matching their vertex counts, edge counts and degree
// character; DESIGN.md records the substitution rationale.
//
// Every dataset can be materialized at a reduced scale (both the vertex and
// edge counts divided by the same power of two, preserving the average
// degree; see ScaledParams) so experiments stay laptop-sized by default
// while full paper-sized runs remain one flag away.
package datasets

import (
	"fmt"
	"math/bits"

	"graphtinker/internal/rmat"
)

// Dataset describes one Table-1 entry.
type Dataset struct {
	// Name as printed in Table 1.
	Name string
	// Kind is "synthetic" or "real world" (Table 1's Type column). A
	// real-world dataset in this repository is a synthetic stand-in; see
	// the package comment.
	Kind string
	// Vertices and Edges are the full-scale counts from Table 1.
	Vertices uint64
	Edges    uint64
	// Symmetric marks datasets whose underlying real graph is undirected
	// (hollywood-2009); when set, Materialize emits each generated edge in
	// both directions.
	Symmetric bool
	// params generates the edge stream at scale divisor 1.
	params rmat.Params
}

// Table1 returns the six datasets of the paper's Table 1, in table order.
func Table1() []Dataset {
	return []Dataset{
		{
			Name: "RMAT_1M_10M", Kind: "synthetic",
			Vertices: 1000192, Edges: 10000000,
			params: rmatParams(20, 10000000, 101),
		},
		{
			Name: "RMAT_500K_8M", Kind: "synthetic",
			Vertices: 524288, Edges: 8380000,
			params: rmatParams(19, 8380000, 102),
		},
		{
			Name: "RMAT_1M_16M", Kind: "synthetic",
			Vertices: 1048576, Edges: 15700000,
			params: rmatParams(20, 15700000, 103),
		},
		{
			Name: "RMAT_2M_32M", Kind: "synthetic",
			Vertices: 2097152, Edges: 31770000,
			params: rmatParams(21, 31770000, 104),
		},
		{
			// Stand-in for hollywood-2009: undirected co-star network with
			// very high average degree (~100) and dense communities. The
			// noisy RMAT below reproduces the degree skew and the deep
			// overflow chains that drive Figs. 8, 10, 17-19.
			Name: "Hollywood-2009", Kind: "real world",
			Vertices: 1139906, Edges: 113891327, Symmetric: true,
			params: rmat.Params{
				Scale: 21, NumEdges: 113891327 / 2, // symmetrization doubles
				A: 0.45, B: 0.22, C: 0.22, Seed: 105, MaxWeight: 255, Noise: 0.05,
			},
		},
		{
			// Stand-in for kron_g500-logn21: a scale-21 Graph500 Kronecker
			// graph — which is exactly what the real dataset is, so the
			// substitution is near-faithful (different seed, no
			// symmetrization/dedup pass).
			Name: "Kron_g500-logn21", Kind: "real world",
			Vertices: 2097153, Edges: 182082942,
			params: rmatParams(21, 182082942, 106),
		},
	}
}

func rmatParams(scale int, edges uint64, seed uint64) rmat.Params {
	return rmat.Params{
		Scale: scale, NumEdges: edges,
		A: 0.57, B: 0.19, C: 0.19,
		Seed: seed, MaxWeight: 255,
	}
}

// ByName looks a dataset up by its Table-1 name.
func ByName(name string) (Dataset, error) {
	for _, d := range Table1() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// Names returns the Table-1 names in order.
func Names() []string {
	t := Table1()
	names := make([]string, len(t))
	for i, d := range t {
		names[i] = d.Name
	}
	return names
}

// RoundDivisor returns the scale divisor the inputs are generated at: a
// divisor of at least 1 rounded up to a power of two, so 100 gives 128.
func RoundDivisor(divisor int) int {
	if divisor <= 1 {
		return divisor
	}
	return 1 << bits.Len(uint(divisor)-1)
}

// ScaledParams returns the generation parameters at RoundDivisor(divisor)
// = 2^s: Scale falls by s (floored at 4) and the edge count is divided by
// 2^s (floored at 1,000), which preserves the average degree above the
// floors. Divisor 1 is full scale.
func (d Dataset) ScaledParams(divisor int) (rmat.Params, error) {
	if divisor < 1 {
		return rmat.Params{}, fmt.Errorf("datasets: scale divisor %d must be >= 1", divisor)
	}
	p := d.params
	if divisor > 1 {
		shift := bits.TrailingZeros(uint(RoundDivisor(divisor)))
		p.Scale -= shift
		if p.Scale < 4 {
			p.Scale = 4
		}
		p.NumEdges /= uint64(int(1) << uint(shift))
		if p.NumEdges < 1000 {
			p.NumEdges = 1000
		}
	}
	return p, nil
}

// Materialize generates the dataset's edge stream at the given scale
// divisor, split into batches of batchSize edges (the paper uses 1M-edge
// batches). Symmetric datasets emit each generated edge followed by its
// reverse; an odd batchSize can split such a pair across two batches.
func (d Dataset) Materialize(divisor, batchSize int) ([][]rmat.Edge, error) {
	p, err := d.ScaledParams(divisor)
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("datasets: batch size %d must be positive", batchSize)
	}
	gen := rmat.Generate
	if d.Symmetric {
		gen = rmat.GenerateSymmetric
	}
	es, err := gen(p)
	if err != nil {
		return nil, err
	}
	return rmat.Batches(es, batchSize), nil
}

// Stats summarizes a materialized edge stream for the Table-1 report.
type Stats struct {
	Name          string
	Kind          string
	PaperVertices uint64
	PaperEdges    uint64
	GenVertices   uint64 // distinct endpoints actually generated
	GenEdges      uint64 // tuples generated (duplicates included)
	UniqueEdges   uint64 // distinct (src,dst) pairs
	MaxOutDegree  uint64
	AvgOutDegree  float64
}

// Measure materializes the dataset at the given divisor and computes its
// stream statistics.
func (d Dataset) Measure(divisor, batchSize int) (Stats, error) {
	batches, err := d.Materialize(divisor, batchSize)
	if err != nil {
		return Stats{}, err
	}
	type pair struct{ s, d uint64 }
	seenEdge := make(map[pair]struct{})
	seenVertex := make(map[uint64]struct{})
	deg := make(map[uint64]uint64)
	var tuples uint64
	for _, b := range batches {
		for _, e := range b {
			tuples++
			seenVertex[e.Src] = struct{}{}
			seenVertex[e.Dst] = struct{}{}
			p := pair{e.Src, e.Dst}
			if _, dup := seenEdge[p]; !dup {
				seenEdge[p] = struct{}{}
				deg[e.Src]++
			}
		}
	}
	st := Stats{
		Name: d.Name, Kind: d.Kind,
		PaperVertices: d.Vertices, PaperEdges: d.Edges,
		GenVertices: uint64(len(seenVertex)), GenEdges: tuples,
		UniqueEdges: uint64(len(seenEdge)),
	}
	var sum uint64
	for _, dg := range deg {
		sum += dg
		if dg > st.MaxOutDegree {
			st.MaxOutDegree = dg
		}
	}
	if len(deg) > 0 {
		st.AvgOutDegree = float64(sum) / float64(len(deg))
	}
	return st, nil
}
