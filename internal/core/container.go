package core

// Per-vertex edge containers. The out-edge set of every vertex sits behind
// the EdgeContainer interface, with three concrete formats:
//
//   - sliceContainer (repr_slice.go): a sorted slice. Every vertex up to
//     the promote degree lives here under the default — no blocks, no
//     hashing, just a binary search over contiguous entries.
//   - cuckooContainer (repr_cuckoo.go): a bucketized cuckoo hash table for
//     the vertices above it.
//   - blockContainer (repr_blocks.go): the paper's hashed edgeblock tree
//     (Robin Hood Hashing within subblocks, Tree-Based Hashing across
//     generations). Only ReprBlocks uses it: it is the structure the paper
//     describes, and the one its figures and ablations measure.
//
// adaptiveContainer (adaptive.go) is the per-vertex adaptor and the one
// EdgeContainer implementation: it holds the vertex's (host, dense id)
// binding, routes operations to the active format, and under ReprAdaptive
// migrates between the slice and the cuckoo table when the degree crosses
// the Config thresholds (with hysteresis). The concrete formats take the
// host from the adaptor. Every vertex owns one adaptiveContainer in
// GraphTinker.cont; the hot paths dispatch on its kind tag directly — the
// interface is the architectural and testing boundary, not a
// virtual-dispatch layer in the middle of a probe loop.
//
// The containers share the host instance's arenas and counters: block
// storage lives in the host's edgeblockArray, the block tree mirrors its
// edges into the host's CAL when that is on, and probe work lands in the
// host's stats. The slice and cuckoo formats have no mirror: they are
// streamed directly. Migration happens inside the mutation path (and
// therefore inside the Parallel writer's shadow-replica apply), so the
// seqlock read protocol is untouched: readers of a pinned replica never
// observe a half-migrated vertex. The gtlint containeriface check keeps the
// boundary honest — no code outside the container files may type-assert a
// concrete implementation.

import "fmt"

// EdgeContainer is the per-vertex edge-set abstraction. Implementations
// are bound to one (host GraphTinker, dense vertex id) pair and maintain
// the vertex's degree, the host's statistics and, for the block tree, the
// host's CAL mirror as they mutate. The probe return of the mutating and
// lookup calls is the number of entries inspected — the probe-distance
// metric the instrumentation layer records.
type EdgeContainer interface {
	// Insert adds or updates edge (d, dst); isNew is false when an
	// existing edge had its weight patched.
	Insert(dst uint64, w float32) (isNew bool, probe int)
	// Delete removes edge (d, dst), reporting whether it was present.
	Delete(dst uint64) (removed bool, probe int)
	// Find reports the stored weight of edge (d, dst).
	Find(dst uint64) (w float32, probe int, ok bool)
	// Degree is the number of live edges stored.
	Degree() uint32
	// Iterate visits every live edge in unspecified order, mutating
	// nothing (safe for concurrent pinned readers). It returns false when
	// the callback stopped the walk.
	Iterate(fn func(dst uint64, w float32) bool) bool
	// Snapshot returns the live edge set with raw source ids filled in.
	Snapshot() []Edge
}

// Representation selects the per-vertex edge container format.
type Representation uint8

const (
	// ReprAdaptive (the default) starts every vertex as a sorted slice and
	// moves it to the cuckoo table and back as its degree crosses the
	// Config thresholds. It keeps one copy of each edge: no CAL.
	ReprAdaptive Representation = 0
	// ReprBlocks is the paper's hashed edgeblock-tree container for every
	// vertex, optionally mirrored into the CAL — the structure the paper's
	// figures measure. It keeps its value 2 so that no other number
	// aliases it.
	ReprBlocks Representation = 2
)

func (r Representation) String() string {
	switch r {
	case ReprAdaptive:
		return "adaptive"
	case ReprBlocks:
		return "blocks"
	default:
		return fmt.Sprintf("Representation(%d)", uint8(r))
	}
}

// ParseRepresentation maps the String form (or "" for the default) back to
// a Representation — the gtbench -repr flag and the conformance suite's
// GT_REPR environment variable speak this vocabulary.
func ParseRepresentation(s string) (Representation, error) {
	switch s {
	case "", "adaptive":
		return ReprAdaptive, nil
	case "blocks":
		return ReprBlocks, nil
	default:
		return 0, fmt.Errorf("core: unknown representation %q (adaptive|blocks)", s)
	}
}

// Default adaptive-migration thresholds (see the Config fields). The
// promote point is the smallest one repeated runs of
// BenchmarkReprThresholds (internal/bench) pick; demotion sits at half of
// it.
const (
	DefaultCuckooPromoteDegree = 2048
	DefaultCuckooDemoteDegree  = 1024
)

// reprKind tags the active format of one vertex's adaptiveContainer. The
// zero value means the vertex has never received an edge (its container is
// uninitialized), which is what lets GraphTinker.cont grow zero-filled.
type reprKind uint8

const (
	reprNone reprKind = iota
	reprSlice
	reprBlocks
	reprCuckoo
)

func (k reprKind) String() string {
	switch k {
	case reprNone:
		return "none"
	case reprSlice:
		return "slice"
	case reprBlocks:
		return "blocks"
	case reprCuckoo:
		return "cuckoo"
	default:
		return fmt.Sprintf("reprKind(%d)", uint8(k))
	}
}
