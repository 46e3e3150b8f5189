// Package core implements the GraphTinker dynamic-graph data structure
// described in "GraphTinker: A High Performance Data Structure for Dynamic
// Graph Processing" (Jaiyeoba and Skadron, IPDPS 2019).
//
// The structure stores the out-edges of every vertex in an EdgeblockArray: a
// growable array of fixed-width edgeblocks, each split into subblocks (the
// unit that can "branch out" into a child edgeblock when congested) and
// workblocks (the granularity at which cells are retrieved for inspection).
// Robin Hood Hashing places edges within a subblock; Tree-Based Hashing
// routes congested subblocks into child edgeblocks in the overflow region.
// Two compaction features keep analytics fast without any preprocessing
// pass: Scatter-Gather Hashing densifies source vertex ids so the main
// region contains only non-empty vertices, and the Coarse Adjacency List
// maintains a contiguous copy of all edges grouped by source-id range.
//
// That edgeblock tree is the paper's structure, selected by ReprBlocks with
// the CAL on. The default keeps each vertex's edges in a dense sorted slice
// or cuckoo table (ReprAdaptive) and no CAL: one copy of each edge, which
// full-processing analytics stream directly, skipping inactive sources.
package core

import (
	"fmt"
	"math/bits"
)

// Default geometry, matching the configuration the paper selects in Sec. V.A
// ("The PAGEWIDTH, Subblock and Workblock sizes of GraphTinker were chosen to
// be 64, 8 and 4 respectively").
const (
	DefaultPageWidth     = 64
	DefaultSubblockSize  = 8
	DefaultWorkblockSize = 4
	DefaultCALGroupSize  = 1024
	DefaultCALBlockSize  = 256

	// maxBlockCells caps PageWidth and CALBlockSize: storage is allocated
	// in chunks of 1,024 edgeblocks or 256 CAL blocks, so a width near
	// 2^62 — say, read from a crafted snapshot — would otherwise panic the
	// first insert.
	maxBlockCells = 1 << 16
)

// DeleteMode selects between the two edge-deletion mechanisms of Sec. III.C.
type DeleteMode uint8

const (
	// DeleteOnly tombstones the deleted cell and leaves the structure
	// otherwise untouched. Fast deletes, but the structure never shrinks.
	DeleteOnly DeleteMode = iota
	// DeleteAndCompact backfills every hole with an edge pulled up from the
	// deepest descendant edgeblock on the same hash path, freeing child
	// edgeblocks as they empty. Per the paper, Robin Hood Hashing is
	// disabled in this mode (cells are placed first-fit within a subblock)
	// to avoid the edge-tracking complexity of compacting swapped edges.
	DeleteAndCompact
)

func (m DeleteMode) String() string {
	switch m {
	case DeleteOnly:
		return "delete-only"
	case DeleteAndCompact:
		return "delete-and-compact"
	default:
		return fmt.Sprintf("DeleteMode(%d)", uint8(m))
	}
}

// Config parameterizes a GraphTinker instance. The zero value is not usable;
// call DefaultConfig and adjust.
type Config struct {
	// PageWidth is the number of edge cells in one edgeblock. Must be a
	// power of two, a multiple of SubblockSize, and at most 65536.
	PageWidth int
	// SubblockSize is the number of edge cells in one subblock. Must be a
	// power of two and a multiple of WorkblockSize. A subblock is the unit
	// that branches out into a child edgeblock when congested.
	SubblockSize int
	// WorkblockSize is the number of edge cells fetched per retrieval during
	// the find/RHH process. It does not change placement, only the access
	// granularity accounted by the statistics (the paper exposes it as the
	// DRAM-traffic tuning knob).
	WorkblockSize int

	// EnableSGH turns Scatter-Gather Hashing on: raw source vertex ids are
	// remapped to dense ids 0,1,2,... in arrival order, so the main region
	// holds only non-empty vertices. Disabling it indexes the main region by
	// raw source id directly (the ablation in Sec. V.B).
	EnableSGH bool
	// EnableCAL turns the Coarse Adjacency List mirror on: a second,
	// contiguous copy of every edge that full-processing analytics stream
	// whole. It is off by default, where each vertex's slice or cuckoo table
	// is dense enough to stream directly and the walk skips inactive
	// sources; the paper's figures turn it on over the block tree, and off
	// for the "GraphTinker without CAL" configuration of Fig. 8.
	EnableCAL bool
	// CALGroupSize is the number of consecutive dense source ids that share
	// one CAL group (the paper's example uses 1024).
	CALGroupSize int
	// CALBlockSize is the number of edge slots per CAL block (at most
	// 65536).
	CALBlockSize int

	// DeleteMode selects the deletion mechanism.
	DeleteMode DeleteMode

	// Repr selects the per-vertex edge representation. The zero value is
	// ReprAdaptive: every vertex starts in the inline sorted-slice format,
	// moves to the cuckoo table when its degree passes
	// CuckooPromoteDegree, and back when it falls to CuckooDemoteDegree.
	// The other values force a single format for every vertex (no
	// migration). ReprBlocks is the paper's edgeblock tree: the figure
	// harness pins it, and the conformance suite and gtbench's -repr A/B
	// flag force each format in turn.
	Repr Representation

	// Adaptive-representation degree thresholds. Zero means "use the
	// default"; New normalizes them before validation, so a Config built
	// by hand without touching these fields behaves like DefaultConfig.
	// The demote point must lie below the promote point (hysteresis), so a
	// vertex oscillating around one degree does not migrate on every
	// operation.
	//
	// CuckooPromoteDegree: a slice vertex whose degree exceeds this moves
	// to the cuckoo table (default 2048, from the measured sweep in
	// DESIGN.md §3).
	CuckooPromoteDegree int
	// CuckooDemoteDegree: a cuckoo vertex whose degree falls to or below
	// this moves back to a slice (default 1024).
	CuckooDemoteDegree int

	// InitialVertexCapacity pre-sizes the per-vertex tables. Optional.
	InitialVertexCapacity int
	// HashSeed perturbs the subblock/slot hash functions. Two instances with
	// the same seed and the same operation stream are identical.
	HashSeed uint64
}

// DefaultConfig returns the shipped configuration: the adaptive slice/cuckoo
// representation with SGH on, no CAL, the delete-only mechanism, and the
// paper's Sec. V.A geometry (PAGEWIDTH 64, subblocks of 8 cells, workblocks
// of 4) and CAL sizes for when ReprBlocks or EnableCAL is chosen.
func DefaultConfig() Config {
	return Config{
		PageWidth:           DefaultPageWidth,
		SubblockSize:        DefaultSubblockSize,
		WorkblockSize:       DefaultWorkblockSize,
		EnableSGH:           true,
		CALGroupSize:        DefaultCALGroupSize,
		CALBlockSize:        DefaultCALBlockSize,
		DeleteMode:          DeleteOnly,
		Repr:                ReprAdaptive,
		CuckooPromoteDegree: DefaultCuckooPromoteDegree,
		CuckooDemoteDegree:  DefaultCuckooDemoteDegree,
	}
}

// withReprDefaults fills zero representation thresholds with the defaults,
// so snapshot loads and hand-built Configs predating the adaptive layer
// keep working unchanged (the snapshot format does not persist them).
func (c Config) withReprDefaults() Config {
	if c.CuckooPromoteDegree == 0 {
		c.CuckooPromoteDegree = DefaultCuckooPromoteDegree
	}
	if c.CuckooDemoteDegree == 0 {
		c.CuckooDemoteDegree = DefaultCuckooDemoteDegree
	}
	return c
}

// Validate reports whether the configuration is internally consistent.
// Zero representation thresholds are treated as their defaults.
func (c Config) Validate() error {
	c = c.withReprDefaults()
	if c.PageWidth <= 0 || bits.OnesCount(uint(c.PageWidth)) != 1 {
		return fmt.Errorf("core: PageWidth %d must be a positive power of two", c.PageWidth)
	}
	if c.SubblockSize <= 0 || bits.OnesCount(uint(c.SubblockSize)) != 1 {
		return fmt.Errorf("core: SubblockSize %d must be a positive power of two", c.SubblockSize)
	}
	if c.WorkblockSize <= 0 || bits.OnesCount(uint(c.WorkblockSize)) != 1 {
		return fmt.Errorf("core: WorkblockSize %d must be a positive power of two", c.WorkblockSize)
	}
	if c.PageWidth > maxBlockCells {
		return fmt.Errorf("core: PageWidth %d exceeds %d cells", c.PageWidth, maxBlockCells)
	}
	if c.PageWidth < c.SubblockSize {
		return fmt.Errorf("core: PageWidth %d smaller than SubblockSize %d", c.PageWidth, c.SubblockSize)
	}
	if c.SubblockSize < c.WorkblockSize {
		return fmt.Errorf("core: SubblockSize %d smaller than WorkblockSize %d", c.SubblockSize, c.WorkblockSize)
	}
	if c.SubblockSize >= 1<<16 {
		return fmt.Errorf("core: SubblockSize %d exceeds the probe-distance field range", c.SubblockSize)
	}
	if c.EnableCAL {
		if c.CALGroupSize <= 0 {
			return fmt.Errorf("core: CALGroupSize %d must be positive", c.CALGroupSize)
		}
		if c.CALBlockSize <= 0 || c.CALBlockSize > maxBlockCells {
			return fmt.Errorf("core: CALBlockSize %d must be in [1, %d]", c.CALBlockSize, maxBlockCells)
		}
	}
	if c.InitialVertexCapacity < 0 {
		return fmt.Errorf("core: InitialVertexCapacity %d must be non-negative", c.InitialVertexCapacity)
	}
	switch c.DeleteMode {
	case DeleteOnly, DeleteAndCompact:
	default:
		return fmt.Errorf("core: unknown DeleteMode %d", c.DeleteMode)
	}
	switch c.Repr {
	case ReprAdaptive, ReprSlice, ReprBlocks, ReprCuckoo:
	default:
		return fmt.Errorf("core: unknown Representation %d", c.Repr)
	}
	if c.CuckooDemoteDegree < 0 || c.CuckooDemoteDegree >= c.CuckooPromoteDegree {
		return fmt.Errorf("core: CuckooDemoteDegree %d must be in [0, CuckooPromoteDegree %d) for hysteresis",
			c.CuckooDemoteDegree, c.CuckooPromoteDegree)
	}
	return nil
}

// geometry caches the derived shift/mask arithmetic for a validated Config so
// the hot paths never divide.
type geometry struct {
	pageWidth         int
	subblockSize      int
	workblockSize     int
	subblocksPerBlock int
	workblocksPerSub  int
	subblockShift     int // log2(SubblockSize)
	subblockMask      int // SubblockSize-1
	sbIndexMask       int // subblocksPerBlock-1
}

func newGeometry(c Config) geometry {
	g := geometry{
		pageWidth:     c.PageWidth,
		subblockSize:  c.SubblockSize,
		workblockSize: c.WorkblockSize,
	}
	g.subblocksPerBlock = c.PageWidth / c.SubblockSize
	g.workblocksPerSub = c.SubblockSize / c.WorkblockSize
	g.subblockShift = bits.TrailingZeros(uint(c.SubblockSize))
	g.subblockMask = c.SubblockSize - 1
	g.sbIndexMask = g.subblocksPerBlock - 1
	return g
}
