// Package graphtinker is the public API of this repository: a Go
// implementation of GraphTinker, the high-performance dynamic-graph data
// structure of Jaiyeoba and Skadron (IPDPS 2019), together with the paper's
// hybrid graph engine and its STINGER baseline.
//
// The data structure stores a directed, weighted, dynamic graph and
// supports high-throughput edge insertion, deletion (two mechanisms) and
// retrieval. Internally it combines Robin Hood Hashing and Tree-Based
// Hashing over a hierarchy of edgeblocks/subblocks/workblocks to keep probe
// distances short, Scatter-Gather Hashing to densify the vertex space, and
// a Coarse Adjacency List mirror so analytics can stream edges contiguously
// without a preprocessing pass.
//
// Quick start:
//
//	g := graphtinker.MustNew(graphtinker.DefaultConfig())
//	g.InsertEdge(1, 2, 1.0)
//	eng := graphtinker.MustNewEngine(g, graphtinker.BFS(1), graphtinker.EngineOptions{
//		Mode: graphtinker.Hybrid,
//	})
//	res := eng.RunFromScratch()
//	fmt.Println(eng.Value(2), res.ThroughputMEPS())
package graphtinker

import (
	"io"

	"graphtinker/internal/core"
	"graphtinker/internal/stinger"
)

// Edge is a weighted directed edge between raw vertex ids.
type Edge = core.Edge

// Config parameterizes a GraphTinker instance; see DefaultConfig.
type Config = core.Config

// DeleteMode selects between the delete-only and delete-and-compact
// mechanisms.
type DeleteMode = core.DeleteMode

// Deletion mechanisms (Sec. III.C of the paper).
const (
	DeleteOnly       = core.DeleteOnly
	DeleteAndCompact = core.DeleteAndCompact
)

// Representation selects the per-vertex edge-container format; see
// Config.Repr.
type Representation = core.Representation

// Edge-container representations, two of them. The default, ReprAdaptive,
// keeps every vertex in a sorted slice and moves heavy hitters to a cuckoo
// table and back as their degree crosses the Config thresholds, with one
// copy of each edge. ReprBlocks is the paper's hashed edgeblock tree, the
// only representation the CAL (Config.EnableCAL) can mirror.
const (
	ReprAdaptive = core.ReprAdaptive
	ReprBlocks   = core.ReprBlocks
)

// Graph is a single GraphTinker instance. It is not safe for concurrent
// mutation; use Parallel for the paper's multi-instance partitioning.
type Graph = core.GraphTinker

// Parallel shards a graph over several instances by source-vertex hash.
type Parallel = core.Parallel

// Stats aggregates a graph's operation counters.
type Stats = core.Stats

// MemoryFootprint reports resident bytes by component.
type MemoryFootprint = core.MemoryFootprint

// Occupancy reports how compactly the structure stores its live edges.
type Occupancy = core.Occupancy

// DefaultConfig returns the shipped configuration: adaptive slice/cuckoo
// edge storage, SGH on, no CAL (one copy of each edge), delete-only, and
// the paper's geometry (PAGEWIDTH 64, subblock 8, workblock 4) for when
// ReprBlocks (and EnableCAL) is chosen.
func DefaultConfig() Config { return core.DefaultConfig() }

// New constructs an empty graph with the given configuration.
func New(cfg Config) (*Graph, error) { return core.New(cfg) }

// MustNew is New for known-valid configurations; it panics on error.
func MustNew(cfg Config) *Graph { return core.MustNew(cfg) }

// NewParallel builds p independent instances sharing one configuration.
// A batch update applies its shards in parallel on the process's pool of
// GOMAXPROCS−1 apply helpers, beside the caller; the Parallel owns no
// goroutines, so it needs no Close (Close does nothing).
func NewParallel(cfg Config, p int) (*Parallel, error) { return core.NewParallel(cfg, p) }

// Mirrored maintains forward and reverse instances so both edge directions
// can be followed — the substrate for the vertex-centric engine.
type Mirrored = core.Mirrored

// NewMirrored builds a mirrored pair with a shared configuration.
func NewMirrored(cfg Config) (*Mirrored, error) { return core.NewMirrored(cfg) }

// CSR is a compressed-sparse-row snapshot (see Graph.ExportCSR).
type CSR = core.CSR

// ProbeHistogram summarizes probe distances and branch-out generations
// (see Graph.AnalyzeProbes).
type ProbeHistogram = core.ProbeHistogram

// ReadSnapshot reconstructs a graph from a snapshot written by
// Graph.WriteSnapshot or Parallel.WriteSnapshot (whose shards it merges
// into one graph) — one format, older files included; a non-nil override
// replaces the stored configuration.
func ReadSnapshot(r io.Reader, override *Config) (*Graph, error) {
	return core.ReadSnapshot(r, override)
}

// StingerConfig parameterizes the STINGER baseline.
type StingerConfig = stinger.Config

// Stinger is the re-implemented STINGER baseline structure the paper
// compares against. It satisfies the same GraphStore interface as Graph,
// so engines and harnesses run unchanged over either.
type Stinger = stinger.Stinger

// DefaultStingerConfig returns the paper's STINGER configuration (edge
// blocks of 16).
func DefaultStingerConfig() StingerConfig { return stinger.DefaultConfig() }

// NewStinger constructs an empty STINGER instance.
func NewStinger(cfg StingerConfig) (*Stinger, error) { return stinger.New(cfg) }
