package graphtinker

import (
	"graphtinker/internal/algorithms"
	"graphtinker/internal/engine"
)

// GraphStore is the read surface engines need; both *Graph and *Stinger
// satisfy it.
type GraphStore = engine.GraphStore

// Program is an edge-centric GAS vertex program (processEdge / reduce /
// apply plus the per-algorithm inconsistent-vertex seeding hooks).
type Program = engine.Program

// SeedContext is passed to a Program's seeding hooks.
type SeedContext = engine.SeedContext

// Engine runs one Program over one GraphStore under a processing mode.
type Engine = engine.Engine

// EngineOptions configures an engine.
type EngineOptions = engine.Options

// Mode selects the execution model.
type Mode = engine.Mode

// Execution models (Sec. IV.B of the paper).
const (
	// FullProcessing re-runs the analysis from scratch after every batch,
	// streaming all edges each iteration (store-and-static-compute).
	FullProcessing = engine.FullProcessing
	// IncrementalProcessing continues from the previous result, walking
	// only the vertices a batch made inconsistent.
	IncrementalProcessing = engine.IncrementalProcessing
	// Hybrid keeps incremental semantics but picks the cheaper edge-loading
	// path per iteration using the T = A/E predictor.
	Hybrid = engine.Hybrid
)

// DefaultThreshold is the hybrid inference-box threshold (0.02).
const DefaultThreshold = engine.DefaultThreshold

// RunResult aggregates one engine run; IterationStats describes one
// processing+apply iteration.
type (
	RunResult      = engine.RunResult
	IterationStats = engine.IterationStats
)

// NewEngine validates the program and builds an engine over the store. Over
// a default Graph, Parallel or Mirrored, a program with a plain Apply has
// its large iterations split across GOMAXPROCS workers; over a ReprBlocks
// Parallel of two or more shards, the split deals each worker whole shards.
// A lone ReprBlocks Graph, STINGER and ApplyVertex-only programs run on one
// worker.
func NewEngine(store GraphStore, prog Program, opts EngineOptions) (*Engine, error) {
	return engine.New(store, prog, opts)
}

// MustNewEngine is NewEngine for known-valid inputs; it panics on error.
func MustNewEngine(store GraphStore, prog Program, opts EngineOptions) *Engine {
	return engine.MustNew(store, prog, opts)
}

// Unreached is the property value of vertices BFS/SSSP have not reached.
var Unreached = algorithms.Unreached

// BFS returns the breadth-first-search program rooted at root.
func BFS(root uint64) Program { return algorithms.BFS(root) }

// SSSP returns the single-source shortest-paths program rooted at root.
func SSSP(root uint64) Program { return algorithms.SSSP(root) }

// CC returns the connected-components label-propagation program.
func CC() Program { return algorithms.CC() }

// NoParent marks the root and unreached vertices in BFSWithParents output.
const NoParent = algorithms.NoParent

// BFSWithParents returns a BFS program that also tracks a parent tree
// (the Graph500 output format). Decode converged values with
// DecodeBFSParents; audit with ValidateParentTree.
func BFSWithParents(root uint64) Program { return algorithms.BFSWithParents(root) }

// DecodeBFSParents converts BFSWithParents' converged property array into
// distance and parent arrays.
func DecodeBFSParents(values []float64) (dist []float64, parent []uint64) {
	return algorithms.DecodeBFSParents(values)
}

// ValidateParentTree performs the Graph500 parent-tree audit; it returns
// the violations found (empty = valid).
func ValidateParentTree(dist []float64, parent []uint64, edges []Edge, root uint64) []string {
	return algorithms.ValidateParentTree(dist, parent, edges, root)
}

// ValidateBFS / ValidateSSSP / ValidateCC audit engine results against an
// edge list with implementation-free structural checks.
func ValidateBFS(dist []float64, edges []Edge, root uint64) []string {
	return algorithms.ValidateBFS(dist, edges, root)
}

func ValidateSSSP(dist []float64, edges []Edge, root uint64) []string {
	return algorithms.ValidateSSSP(dist, edges, root)
}

func ValidateCC(labels []float64, edges []Edge) []string {
	return algorithms.ValidateCC(labels, edges)
}

// PageRankConfig parameterizes the PageRank-delta program.
type PageRankConfig = algorithms.PageRankConfig

// DefaultPageRankConfig binds the conventional parameters (damping 0.85)
// to a store's degree function.
func DefaultPageRankConfig(store GraphStore) PageRankConfig {
	return algorithms.DefaultPageRankConfig(store)
}

// PageRank returns the delta-based PageRank program — an extension beyond
// the paper's three benchmark algorithms. It is static-per-batch: after a
// batch update it restarts rather than repairing incrementally (see the
// algorithms package documentation).
func PageRank(cfg PageRankConfig) Program { return algorithms.PageRankDelta(cfg) }

// InEdgeStore extends GraphStore with in-edge access; *Mirrored satisfies
// it.
type InEdgeStore = engine.InEdgeStore

// VCEngine is the Engine NewVCEngine builds: it runs a Program in the
// vertex-centric pull model — the computation model the paper's
// future-work section proposes. It gathers over in-edges instead of
// scattering over out-edges, so it needs a store with reverse access (see
// NewMirrored).
type VCEngine = engine.VCEngine

// NewVCEngine builds a vertex-centric engine over an in-edge-capable
// store.
func NewVCEngine(store InEdgeStore, prog Program, opts EngineOptions) (*VCEngine, error) {
	return engine.NewVC(store, prog, opts)
}

// MustNewVCEngine is NewVCEngine for known-valid inputs.
func MustNewVCEngine(store InEdgeStore, prog Program, opts EngineOptions) *VCEngine {
	return engine.MustNewVC(store, prog, opts)
}

// TriangleCounts holds global and per-vertex triangle counts (see
// CountTriangles).
type TriangleCounts = algorithms.TriangleCounts

// CountTriangles counts undirected triangles over a CSR snapshot (export
// one with Graph.ExportCSR). The companion UndirectedDegrees feeds
// TriangleCounts.ClusteringCoefficient.
func CountTriangles(csr *CSR) TriangleCounts { return algorithms.CountTriangles(csr) }

// UndirectedDegrees returns the deduplicated undirected degree of every
// vertex in a CSR snapshot.
func UndirectedDegrees(csr *CSR) []uint64 { return algorithms.UndirectedDegrees(csr) }
