package core

import "slices"

// adaptiveContainer is the per-vertex adaptor over the three edge formats.
// Each dense vertex id owns one (GraphTinker.cont); it holds the vertex's
// (host, dense id) binding once, for whichever format is active, and the
// kind tag selects that format. The hot paths dispatch on the tag with a
// switch — no interface value is ever formed on the operation paths, so
// reads stay allocation-free. The adaptor also keeps the vertex's degree
// (the host's props.degree), which is the block tree's only live count.
//
// Under ReprAdaptive (the default) a vertex lives in one of two tiers and
// migrates when its degree crosses the configured thresholds:
//
//	slice  --(degree > CuckooPromoteDegree)-->  cuckoo
//	cuckoo --(degree <= CuckooDemoteDegree)-->  slice
//
// Promote and demote points are separated (hysteresis) so a vertex
// oscillating around one degree does not migrate on every operation. Under
// ReprBlocks every vertex lives in the paper's edgeblock tree and never
// migrates; a slice or cuckoo vertex therefore implies ReprAdaptive.
//
// Migration runs inside the mutation that crossed the threshold, which
// under the Parallel wrapper means inside a write no reader can see (an
// in-place apply with the version odd, or the shadow-replica apply — see
// seqlock.go): readers never observe a half-migrated vertex. A shard's two
// replicas receive the same ops but need not migrate at the same one — a
// clone starts each vertex in the format its degree selects, which inside
// the hysteresis band may not be the source's. Steady-state flapping is
// allocation-free: the slice keeps its entry buffer across promotions and
// the cuckoo table keeps its slot buffer across demotions.
type adaptiveContainer struct {
	host   *GraphTinker
	slice  sliceContainer
	cuckoo *cuckooContainer // nil until the vertex first needs it
	d      uint32
	kind   reprKind
}

var _ EdgeContainer = (*adaptiveContainer)(nil)

// init binds the container to its (host, dense id) pair on the vertex's
// first edge. The zero kind (reprNone) marks an unbound container, which is
// what lets GraphTinker.cont grow zero-filled.
func (ac *adaptiveContainer) init(gt *GraphTinker, d uint32) {
	ac.initForDegree(gt, d, 0)
}

// initForDegree binds the container like init but picks the format the
// final degree lands in directly — the bulk loader's pre-sizing path
// (bulkload.go). The chosen kind is exactly what sequential insertion of
// `degree` edges through the adaptive thresholds settles on, so the
// CheckInvariants kind/degree windows hold and a bulk-loaded replica is
// interchangeable with an op-by-op one; the slice buffer or cuckoo table is
// pre-sized for the run.
func (ac *adaptiveContainer) initForDegree(gt *GraphTinker, d uint32, degree int) {
	ac.host, ac.d = gt, d
	switch {
	case gt.cfg.Repr == ReprBlocks:
		ac.kind = reprBlocks
	case degree > gt.cfg.CuckooPromoteDegree:
		ac.kind = reprCuckoo
		ac.cuckoo = newCuckooContainer(gt.cfg.HashSeed, degree)
	default:
		ac.kind = reprSlice
		if degree > 0 {
			ac.slice.entries = make([]edgeEntry, 0, degree)
		}
	}
}

// blocks binds the block-tree format to this vertex.
func (ac *adaptiveContainer) blocks() blockContainer {
	return blockContainer{host: ac.host, d: ac.d}
}

func (ac *adaptiveContainer) Insert(dst uint64, w float32) (bool, int) {
	gt := ac.host
	var isNew bool
	var probe int
	switch ac.kind {
	case reprSlice:
		isNew, probe = ac.slice.insert(gt, dst, w)
	case reprBlocks:
		isNew, probe = ac.blocks().insert(dst, w)
	case reprCuckoo:
		isNew, probe = ac.cuckoo.insert(gt, dst, w)
	}
	if isNew {
		gt.props.degree[ac.d]++
		if ac.kind == reprSlice && len(ac.slice.entries) > gt.cfg.CuckooPromoteDegree {
			ac.sliceToCuckoo(gt)
		}
	}
	return isNew, probe
}

func (ac *adaptiveContainer) Delete(dst uint64) (bool, int) {
	gt := ac.host
	var removed bool
	var probe int
	switch ac.kind {
	case reprSlice:
		removed, probe = ac.slice.delete(gt, dst)
	case reprBlocks:
		removed, probe = ac.blocks().delete(dst)
	case reprCuckoo:
		removed, probe = ac.cuckoo.delete(gt, dst)
	}
	if removed {
		gt.props.degree[ac.d]--
		if ac.kind == reprCuckoo && int(ac.cuckoo.n) <= gt.cfg.CuckooDemoteDegree {
			ac.cuckooToSlice(gt)
		}
	}
	return removed, probe
}

func (ac *adaptiveContainer) Find(dst uint64) (float32, int, bool) {
	switch ac.kind {
	case reprSlice:
		return ac.slice.find(ac.host, dst)
	case reprBlocks:
		return ac.blocks().find(dst)
	case reprCuckoo:
		return ac.cuckoo.find(ac.host, dst)
	default:
		return 0, 0, false
	}
}

// Degree is the live count of the active format: the slice length, the
// table's count, or (for the block tree, which keeps none) the vertex's
// degree.
func (ac *adaptiveContainer) Degree() uint32 {
	switch ac.kind {
	case reprSlice:
		return uint32(len(ac.slice.entries))
	case reprBlocks:
		return ac.host.props.degree[ac.d]
	case reprCuckoo:
		return ac.cuckoo.n
	default:
		return 0
	}
}

func (ac *adaptiveContainer) Iterate(fn func(dst uint64, w float32) bool) bool {
	switch ac.kind {
	case reprSlice:
		return ac.slice.iterate(fn)
	case reprBlocks:
		return ac.blocks().iterate(fn)
	case reprCuckoo:
		return ac.cuckoo.iterate(fn)
	default:
		return true
	}
}

func (ac *adaptiveContainer) Snapshot() []Edge {
	if ac.kind == reprNone {
		return nil
	}
	src := ac.host.rawOf(ac.d)
	out := make([]Edge, 0, ac.Degree())
	ac.Iterate(func(dst uint64, w float32) bool {
		out = append(out, Edge{Src: src, Dst: dst, Weight: w})
		return true
	})
	return out
}

// memoryBytes is the retained footprint of the container-owned buffers
// (slice entries and the cuckoo table, live or kept for reuse). Block
// storage is accounted by the shared arena, and the adaptor itself by
// GraphTinker.Memory.
func (ac *adaptiveContainer) memoryBytes() uint64 {
	var n uint64 = ac.slice.memoryBytes()
	if ac.cuckoo != nil {
		n += ac.cuckoo.memoryBytes()
	}
	return n
}

// sliceToCuckoo streams the slice entries into a cuckoo table sized for the
// current degree, retaining the slice buffer for a later demotion. Both
// formats hold the same edgeEntry, so whole entries move.
func (ac *adaptiveContainer) sliceToCuckoo(gt *GraphTinker) {
	deg := len(ac.slice.entries)
	if ac.cuckoo == nil {
		ac.cuckoo = newCuckooContainer(gt.cfg.HashSeed, deg)
	} else {
		ac.cuckoo.reset(deg)
	}
	for _, e := range ac.slice.entries {
		ac.cuckoo.bulkAdd(e)
	}
	ac.slice.clear()
	ac.kind = reprCuckoo
	gt.stats.promotions.Add(1)
}

// cuckooToSlice copies the live slots into the retained slice buffer (grown
// once to the degree when it is too small), sorts them once, and clears the
// table, keeping its slot buffer for a later promotion.
func (ac *adaptiveContainer) cuckooToSlice(gt *GraphTinker) {
	ac.slice.entries = slices.Grow(ac.slice.entries, int(ac.cuckoo.n))
	ac.cuckoo.collectEntries(ac.slice.bulkAdd)
	ac.slice.sortEntries()
	ac.cuckoo.clear()
	ac.kind = reprSlice
	gt.stats.demotions.Add(1)
}
