package core

import "slices"

// adaptiveContainer is the per-vertex adaptor over the three edge formats.
// Each dense vertex id owns one (GraphTinker.cont); the kind tag selects the
// active format and the hot paths dispatch on it with a switch — no
// interface value is ever formed on the operation paths, so reads stay
// allocation-free.
//
// Under Config.Repr == ReprAdaptive a vertex lives in one of two tiers and
// migrates when its degree crosses the configured thresholds:
//
//	slice  --(degree > CuckooPromoteDegree)-->  cuckoo
//	cuckoo --(degree <= CuckooDemoteDegree)-->  slice
//
// Promote and demote points are separated (hysteresis) so a vertex
// oscillating around one degree does not migrate on every operation. A
// forced Repr pins every vertex to one format and never migrates; the
// paper's edgeblock tree is reached only that way (ReprBlocks).
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
	kind   reprKind
	slice  sliceContainer
	blocks blockContainer
	cuckoo *cuckooContainer // nil until the vertex first needs it
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
// interchangeable with an op-by-op one. A forced Repr pins the format as
// init does, with the slice buffer and cuckoo table pre-sized for the run.
func (ac *adaptiveContainer) initForDegree(gt *GraphTinker, d uint32, degree int) {
	ac.slice = sliceContainer{host: gt, d: d}
	ac.blocks = blockContainer{host: gt, d: d}
	ac.kind = gt.cfg.Repr.initialKind()
	if gt.cfg.Repr == ReprAdaptive && degree > gt.cfg.CuckooPromoteDegree {
		ac.kind = reprCuckoo
	}
	switch ac.kind {
	case reprCuckoo:
		ac.cuckoo = newCuckooContainer(gt, d, degree)
	case reprSlice:
		if degree > 0 {
			ac.slice.entries = make([]sliceEntry, 0, degree)
		}
	}
}

func (ac *adaptiveContainer) host() *GraphTinker { return ac.blocks.host }

func (ac *adaptiveContainer) Insert(dst uint64, w float32) (bool, int) {
	var isNew bool
	var probe int
	switch ac.kind {
	case reprSlice:
		isNew, probe = ac.slice.Insert(dst, w)
		if isNew {
			ac.maybePromote()
		}
	case reprBlocks:
		isNew, probe = ac.blocks.Insert(dst, w)
	case reprCuckoo:
		isNew, probe = ac.cuckoo.Insert(dst, w)
	}
	return isNew, probe
}

func (ac *adaptiveContainer) Delete(dst uint64) (bool, int) {
	var removed bool
	var probe int
	switch ac.kind {
	case reprSlice:
		removed, probe = ac.slice.Delete(dst)
	case reprBlocks:
		removed, probe = ac.blocks.Delete(dst)
	case reprCuckoo:
		removed, probe = ac.cuckoo.Delete(dst)
		if removed {
			ac.maybeDemote()
		}
	}
	return removed, probe
}

func (ac *adaptiveContainer) Find(dst uint64) (float32, int, bool) {
	switch ac.kind {
	case reprSlice:
		return ac.slice.Find(dst)
	case reprBlocks:
		return ac.blocks.Find(dst)
	case reprCuckoo:
		return ac.cuckoo.Find(dst)
	default:
		return 0, 0, false
	}
}

func (ac *adaptiveContainer) Degree() uint32 {
	switch ac.kind {
	case reprSlice:
		return ac.slice.Degree()
	case reprBlocks:
		return ac.blocks.Degree()
	case reprCuckoo:
		return ac.cuckoo.Degree()
	default:
		return 0
	}
}

func (ac *adaptiveContainer) Iterate(fn func(dst uint64, w float32) bool) bool {
	switch ac.kind {
	case reprSlice:
		return ac.slice.Iterate(fn)
	case reprBlocks:
		return ac.blocks.Iterate(fn)
	case reprCuckoo:
		return ac.cuckoo.Iterate(fn)
	default:
		return true
	}
}

func (ac *adaptiveContainer) Snapshot() []Edge {
	switch ac.kind {
	case reprSlice:
		return ac.slice.Snapshot()
	case reprBlocks:
		return ac.blocks.Snapshot()
	case reprCuckoo:
		return ac.cuckoo.Snapshot()
	default:
		return nil
	}
}

func (ac *adaptiveContainer) calPtrOf(dst uint64) (calPtr, bool) {
	switch ac.kind {
	case reprSlice:
		return ac.slice.calPtrOf(dst)
	case reprBlocks:
		return ac.blocks.calPtrOf(dst)
	case reprCuckoo:
		return ac.cuckoo.calPtrOf(dst)
	default:
		return invalidCALPtr, false
	}
}

func (ac *adaptiveContainer) repointCAL(dst uint64, p calPtr) bool {
	switch ac.kind {
	case reprSlice:
		return ac.slice.repointCAL(dst, p)
	case reprBlocks:
		return ac.blocks.repointCAL(dst, p)
	case reprCuckoo:
		return ac.cuckoo.repointCAL(dst, p)
	default:
		return false
	}
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

// maybePromote moves a slice vertex into the cuckoo table when an insertion
// pushed its degree past the promote threshold. Only the adaptive
// representation migrates.
func (ac *adaptiveContainer) maybePromote() {
	gt := ac.host()
	if gt.cfg.Repr == ReprAdaptive && int(ac.slice.Degree()) > gt.cfg.CuckooPromoteDegree {
		ac.sliceToCuckoo(gt)
	}
}

// maybeDemote moves a cuckoo vertex back into the slice when a deletion
// dropped its degree to the demote threshold.
func (ac *adaptiveContainer) maybeDemote() {
	gt := ac.host()
	if gt.cfg.Repr == ReprAdaptive && int(ac.cuckoo.Degree()) <= gt.cfg.CuckooDemoteDegree {
		ac.cuckooToSlice(gt)
	}
}

// sliceToCuckoo streams the slice entries into a cuckoo table sized for the
// current degree, retaining the slice buffer for a later demotion. Both
// formats keep the CAL pointer in the entry and leave the mirror's owner
// back-pointer invalid, so the mirror needs no patching.
func (ac *adaptiveContainer) sliceToCuckoo(gt *GraphTinker) {
	deg := len(ac.slice.entries)
	if ac.cuckoo == nil {
		ac.cuckoo = newCuckooContainer(gt, ac.slice.d, deg)
	} else {
		ac.cuckoo.reset(deg)
	}
	for i := range ac.slice.entries {
		e := &ac.slice.entries[i]
		ac.cuckoo.bulkAdd(e.dst, e.weight, e.calPtr)
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
