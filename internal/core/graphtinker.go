package core

import (
	"time"
	"unsafe"

	"graphtinker/internal/metrics"
)

// GraphTinker is one instance of the paper's dynamic-graph data structure.
// A single instance is not safe for concurrent mutation; the Parallel type
// shards a graph across several instances by source-vertex hash exactly as
// Sec. III.D describes.
type GraphTinker struct {
	cfg Config
	geo geometry

	eba *edgeblockArray
	sgh *scatterGather // nil when Config.EnableSGH is false
	cal *calArray      // nil when Config.EnableCAL is false

	// topBlock maps a dense source id to its top-parent edgeblock in the
	// main region (noBlock until the vertex's first edge). It grows under
	// ReprBlocks only and stays empty otherwise.
	topBlock []int32

	// cont maps a dense source id to its per-vertex edge container — the
	// adaptor that routes operations to the vertex's active representation
	// and migrates it across the degree thresholds (see container.go).
	cont []adaptiveContainer

	props *vertexProps

	numEdges uint64
	maxRawID uint64 // highest raw vertex id observed (src or dst), +1 = id space
	sawAny   bool

	// stats is the recording target the operation paths increment through
	// and Stats/ResetStats address. A lone instance points it at its own
	// statsStore; the Parallel wrapper's seqlock points a shard's replicas
	// at the shard's counters, and at a scratch sink while a replica replays
	// a batch or is being cloned, so each logical operation is counted
	// exactly once per shard (see seqlock.go).
	statsStore statsCounters
	stats      *statsCounters

	// rec, when non-nil, receives per-operation latency and probe-distance
	// samples on the update paths (see Instrument).
	rec *metrics.UpdateRecorder
}

// New constructs an empty GraphTinker with the given configuration.
func New(cfg Config) (*GraphTinker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Store the normalized form so the instance's migration thresholds are
	// always concrete (zero fields mean "default", see withReprDefaults).
	cfg = cfg.withReprDefaults()
	gt := &GraphTinker{
		cfg:   cfg,
		geo:   newGeometry(cfg),
		eba:   newEdgeblockArray(newGeometry(cfg), cfg.InitialVertexCapacity),
		props: newVertexProps(cfg.InitialVertexCapacity),
	}
	gt.stats = &gt.statsStore
	if cfg.EnableSGH {
		gt.sgh = newScatterGather(cfg.InitialVertexCapacity)
	}
	if cfg.EnableCAL {
		gt.cal = newCALArray(cfg.CALGroupSize, cfg.CALBlockSize)
	}
	if cfg.InitialVertexCapacity > 0 {
		gt.cont = make([]adaptiveContainer, 0, cfg.InitialVertexCapacity)
		if cfg.Repr == ReprBlocks {
			gt.topBlock = make([]int32, 0, cfg.InitialVertexCapacity)
		}
	}
	return gt, nil
}

// MustNew is New for callers with a known-valid configuration.
func MustNew(cfg Config) *GraphTinker {
	gt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return gt
}

// Config returns the configuration the instance was built with.
func (gt *GraphTinker) Config() Config { return gt.cfg }

// rhhEnabled reports whether Robin Hood placement is active. Per Sec. III.C
// the delete-and-compact mechanism runs with RHH turned off (Tree-Based
// Hashing only, first-fit placement within a subblock) to avoid the edge
// tracking the compactor would otherwise need.
func (gt *GraphTinker) rhhEnabled() bool { return gt.cfg.DeleteMode != DeleteAndCompact }

// denseOf maps a raw source id to its dense main-region index, assigning a
// new index through the SGH unit on first sight. Without SGH the raw id is
// the index (the main region then contains empty slots, which is exactly
// the sparsity the SGH feature exists to remove).
func (gt *GraphTinker) denseOf(raw uint64) uint32 {
	if gt.sgh != nil {
		return gt.sgh.assign(raw)
	}
	return uint32(raw)
}

// denseLookup is denseOf without the side effect: it reports whether the
// source id owns any main-region slot yet.
func (gt *GraphTinker) denseLookup(raw uint64) (uint32, bool) {
	if gt.sgh != nil {
		return gt.sgh.lookup(raw)
	}
	if raw < uint64(len(gt.cont)) {
		return uint32(raw), true
	}
	return 0, false
}

// rawOf reverses a dense id to the application-level source id.
func (gt *GraphTinker) rawOf(dense uint32) uint64 {
	if gt.sgh != nil {
		return gt.sgh.raw(dense)
	}
	return uint64(dense)
}

func (gt *GraphTinker) ensureDense(d uint32) {
	for uint32(len(gt.cont)) <= d {
		gt.cont = append(gt.cont, adaptiveContainer{})
		if gt.cfg.Repr == ReprBlocks {
			gt.topBlock = append(gt.topBlock, noBlock)
		}
	}
	gt.props.ensure(d)
}

func (gt *GraphTinker) observe(raw uint64) {
	if !gt.sawAny || raw > gt.maxRawID {
		gt.maxRawID = raw
		gt.sawAny = true
	}
}

// NumEdges returns the number of live edges currently stored.
func (gt *GraphTinker) NumEdges() uint64 { return gt.numEdges }

// MaxVertexID returns the highest raw vertex id observed on either endpoint
// and whether any edge has ever been observed. Engines size their property
// arrays from this.
func (gt *GraphTinker) MaxVertexID() (uint64, bool) { return gt.maxRawID, gt.sawAny }

// NonEmptySources returns how many distinct source vertices own at least one
// main-region slot (with SGH this is exactly the number of vertices ever
// given an out-edge).
func (gt *GraphTinker) NonEmptySources() int {
	if gt.sgh != nil {
		return gt.sgh.count()
	}
	n := 0
	for d := range gt.cont {
		if gt.cont[d].kind != reprNone {
			n++
		}
	}
	return n
}

// OutDegree returns the current out-degree of a raw source id.
func (gt *GraphTinker) OutDegree(src uint64) uint32 {
	d, ok := gt.denseLookup(src)
	if !ok || uint32(len(gt.props.degree)) <= d {
		return 0
	}
	return gt.props.degree[d]
}

// VertexValue / SetVertexValue expose the general-purpose value slot of the
// VertexPropertyArray for a raw source id with at least one out-edge.
func (gt *GraphTinker) VertexValue(src uint64) (float64, bool) {
	d, ok := gt.denseLookup(src)
	if !ok || uint32(len(gt.props.value)) <= d {
		return 0, false
	}
	return gt.props.value[d], true
}

// SetVertexValue stores v for src; it reports false when src owns no slot.
func (gt *GraphTinker) SetVertexValue(src uint64, v float64) bool {
	d, ok := gt.denseLookup(src)
	if !ok || uint32(len(gt.props.value)) <= d {
		return false
	}
	gt.props.value[d] = v
	return true
}

// Stats returns a copy of the accumulated operation counters. The counters
// are atomics, so snapshots taken while another goroutine mutates the
// instance (e.g. mid-batch on a sibling shard, or concurrent FindEdge
// readers) are race-clean.
func (gt *GraphTinker) Stats() Stats { return gt.stats.snapshot() }

// ResetStats clears the operation counters (batch-scoped measurements).
func (gt *GraphTinker) ResetStats() { gt.stats.reset() }

// Instrument attaches an update-path recorder: every InsertEdge, DeleteEdge
// and FindEdge afterwards records its wall latency and probe distance
// (cells inspected) into rec's histograms. A nil rec detaches. The recorder
// is fully atomic, so one recorder may be shared across the shards of a
// Parallel wrapper and snapshot mid-batch. Do not attach or detach while
// operations are in flight.
func (gt *GraphTinker) Instrument(rec *metrics.UpdateRecorder) { gt.rec = rec }

// Recorder returns the attached update-path recorder (nil when detached).
func (gt *GraphTinker) Recorder() *metrics.UpdateRecorder { return gt.rec }

// Memory reports the resident footprint by component: the capacity of every
// buffer the instance holds times its padded element size, so it tracks
// the heap the instance occupies (the SGH map's share is an estimate).
func (gt *GraphTinker) Memory() MemoryFootprint {
	m := MemoryFootprint{
		EdgeblockArrayBytes: gt.eba.memoryBytes() + uint64(cap(gt.topBlock))*4,
		VertexPropsBytes:    gt.props.memoryBytes(),
		ContainerBytes:      uint64(cap(gt.cont)) * uint64(unsafe.Sizeof(adaptiveContainer{})),
	}
	for d := range gt.cont {
		m.ContainerBytes += gt.cont[d].memoryBytes()
	}
	if gt.sgh != nil {
		m.SGHBytes = gt.sgh.memoryBytes()
	}
	if gt.cal != nil {
		m.CALBytes = gt.cal.memoryBytes()
	}
	return m
}

// OccupancyReport measures how compact the structure currently is.
func (gt *GraphTinker) OccupancyReport() Occupancy {
	o := Occupancy{
		LiveEdges:      gt.numEdges,
		CellsAllocated: uint64(gt.eba.liveBlocks) * uint64(gt.geo.pageWidth),
		LiveBlocks:     gt.eba.liveBlocks,
		FreeBlocks:     len(gt.eba.freeList),
	}
	for d := range gt.cont {
		ac := &gt.cont[d]
		o.SliceSlots += uint64(cap(ac.slice.entries))
		if ac.cuckoo != nil {
			o.CuckooSlots += uint64(cap(ac.cuckoo.slots))
		}
	}
	if gt.cal != nil {
		o.CALLiveEdges = gt.cal.liveEdges
		o.CALSlots = gt.cal.slotsAllocated()
		o.CALLiveBlocks = gt.cal.liveBlocks
	}
	return o
}

// ---------------------------------------------------------------------------
// FIND / INSERT (Sec. III.C, "Inserting a new edge")
// ---------------------------------------------------------------------------

// findResult records where the FIND stage located an edge, plus the probe
// work the search cost (cells is the per-operation probe distance the
// instrumentation layer records).
type findResult struct {
	block int32
	sb    int
	slot  int
	gen   int
	cells int
}

// findCell runs the FIND mode: starting at the top-parent edgeblock of the
// dense source id, it hashes the destination to a subblock, scans that
// subblock workblock by workblock, and follows the subblock's child pointer
// down a generation when unsuccessful.
func (gt *GraphTinker) findCell(d uint32, dst uint64) (findResult, bool) {
	blk := gt.topBlock[d]
	gen := 0
	ws := gt.geo.workblockSize
	var cellsScanned, wbFetches int
	for blk != noBlock {
		sb := gt.subblockFor(dst, gen)
		// An all-empty subblock cannot hold the edge; its child chain may
		// still (the edge could have been pulled deeper by eviction before
		// this subblock emptied is impossible — edges only descend when the
		// subblock is congested — but tombstoned paths keep children, so
		// the descent must continue regardless).
		if gt.eba.subOccOf(blk, sb) > 0 {
			cells := gt.eba.subblockCells(blk, sb)
			for i := range cells {
				if cells[i].state == cellOccupied && cells[i].dst == dst {
					gt.stats.cellsInspected.Add(uint64(cellsScanned + i + 1))
					gt.stats.workblocksRetrieved.Add(uint64(wbFetches + i/ws + 1))
					return findResult{block: blk, sb: sb, slot: i, gen: gen, cells: cellsScanned + i + 1}, true
				}
			}
			cellsScanned += len(cells)
			wbFetches += gt.geo.workblocksPerSub
		}
		blk = gt.eba.childOf(blk, sb)
		gen++
	}
	gt.stats.cellsInspected.Add(uint64(cellsScanned))
	gt.stats.workblocksRetrieved.Add(uint64(wbFetches))
	return findResult{cells: cellsScanned}, false
}

// FindEdge reports the weight of edge (src, dst) if it is stored. It is
// safe for concurrent callers (and concurrent iteration-surface readers):
// the search mutates nothing but atomic counters.
func (gt *GraphTinker) FindEdge(src, dst uint64) (float32, bool) {
	if gt.rec == nil {
		w, _, ok := gt.findEdge(src, dst)
		return w, ok
	}
	start := time.Now()
	w, cells, ok := gt.findEdge(src, dst)
	gt.rec.RecordFind(time.Since(start), cells)
	return w, ok
}

func (gt *GraphTinker) findEdge(src, dst uint64) (float32, int, bool) {
	gt.stats.finds.Add(1)
	d, ok := gt.denseLookup(src)
	if !ok || uint32(len(gt.cont)) <= d || gt.cont[d].kind == reprNone {
		return 0, 0, false
	}
	return gt.cont[d].Find(dst)
}

// writeCell stores c at (blk, sb, slot), keeping occupancy consistent.
func (gt *GraphTinker) writeCell(blk int32, sb, slot int, c edgeCell) {
	cells := gt.eba.subblockCells(blk, sb)
	prev := cells[slot].state
	cells[slot] = c
	if prev != cellOccupied && c.state == cellOccupied {
		gt.eba.incOcc(blk, sb)
	}
}

// placeOutcome is the result of trying to settle a floating edge in one
// subblock.
type placeOutcome uint8

const (
	placedHere placeOutcome = iota
	congested               // no free cell; the floating edge must descend
)

// placeInSubblock attempts to settle the floating cell within subblock sb of
// block blk. With RHH enabled it runs the Robin Hood insertion of Fig. 1
// bounded to the subblock: the floating edge probes from its home slot,
// swapping with any resident whose probe distance is smaller ("richer"),
// and the displaced resident carries on probing. When the subblock has no
// free cell the (possibly different) floating edge is returned to be pushed
// down to the child edgeblock by Tree-Based Hashing. The int return is the
// number of cells the pass inspected (the probe-distance contribution).
func (gt *GraphTinker) placeInSubblock(blk int32, sb int, float edgeCell) (placeOutcome, edgeCell, int) {
	s := gt.geo.subblockSize

	// A completely full subblock cannot host the edge no matter how RHH
	// shuffles it; descend straight away (the per-subblock occupancy count
	// answers this without a scan).
	if int(gt.eba.subOccOf(blk, sb)) == s {
		gt.stats.workblocksRetrieved.Add(1) // the congestion check costs one fetch
		return congested, float, 0
	}
	cells := gt.eba.subblockCells(blk, sb)

	// The subblock is retrieved one workblock at a time; account for the
	// fetches an insertion pass costs. A full pass touches every workblock.
	gt.stats.workblocksRetrieved.Add(uint64(gt.geo.workblocksPerSub))
	gt.stats.cellsInspected.Add(uint64(s))

	if !gt.rhhEnabled() {
		// Compact mode: first-fit placement, probe recorded as scan length.
		for i := range cells {
			if cells[i].state != cellOccupied {
				float.probe = uint16(i)
				gt.writeCell(blk, sb, i, edgeCell{
					dst: float.dst, weight: float.weight,
					calPtr: float.calPtr, probe: float.probe, state: cellOccupied,
				})
				return placedHere, edgeCell{}, s
			}
		}
		return congested, float, s // unreachable: the occupancy check passed
	}

	cur := float
	cur.probe = 0
	slot := gt.homeSlotFor(cur.dst)
	mask := gt.geo.subblockMask
	for step := 0; step < s; step++ {
		c := cells[slot]
		if c.state != cellOccupied {
			cur.state = cellOccupied
			gt.writeCell(blk, sb, slot, cur)
			return placedHere, edgeCell{}, s
		}
		if c.probe < cur.probe {
			// The floating edge is poorer; it takes the bucket and the
			// resident resumes probing from here with its own distance.
			cur.state = cellOccupied
			gt.writeCell(blk, sb, slot, cur)
			cur = c
			gt.stats.rhhSwaps.Add(1)
		}
		slot = (slot + 1) & mask
		cur.probe++
	}
	// A free cell existed but the displacement chain wrapped the whole
	// subblock without settling; push the current floating edge down.
	return congested, cur, s
}

// InsertEdge inserts (src, dst, w), returning true when the edge is new and
// false when an existing edge had its weight updated. Self-loops are
// allowed; parallel edges are not (an edge is identified by its endpoints).
func (gt *GraphTinker) InsertEdge(src, dst uint64, w float32) bool {
	if gt.rec == nil {
		isNew, _ := gt.insertEdge(src, dst, w)
		return isNew
	}
	start := time.Now()
	isNew, cells := gt.insertEdge(src, dst, w)
	gt.rec.RecordInsert(time.Since(start), cells)
	return isNew
}

func (gt *GraphTinker) insertEdge(src, dst uint64, w float32) (bool, int) {
	gt.observe(src)
	gt.observe(dst)

	d := gt.denseOf(src)
	gt.ensureDense(d)

	ac := &gt.cont[d]
	if ac.kind == reprNone {
		ac.init(gt, d)
	}
	isNew, probe := ac.Insert(dst, w)
	if !isNew {
		gt.stats.updates.Add(1)
		return false, probe
	}
	gt.numEdges++
	gt.stats.inserts.Add(1)
	return true, probe
}

// InsertBatch inserts a batch of edges, returning how many were new.
func (gt *GraphTinker) InsertBatch(edges []Edge) int {
	inserted := 0
	for _, e := range edges {
		if gt.InsertEdge(e.Src, e.Dst, e.Weight) {
			inserted++
		}
	}
	return inserted
}

// Rebuilt returns a fresh instance with the same configuration holding
// exactly the live edge set, fully compacted: tombstones gone, overflow
// chains at their minimal depth, CAL chains dense, SGH ids reassigned in
// current iteration order. Useful for delete-only workloads that want to
// reclaim space at a chosen moment without paying delete-and-compact's
// per-deletion cost (the amortized alternative the paper's two mechanisms
// bracket). Counters start at zero; the original is left untouched.
func (gt *GraphTinker) Rebuilt() *GraphTinker {
	fresh := MustNew(gt.cfg)
	gt.ForEachEdge(func(src, dst uint64, w float32) bool {
		fresh.InsertEdge(src, dst, w)
		return true
	})
	fresh.ResetStats()
	// The raw id space is a property of the observed stream, not only of
	// the live edges; preserve it so engines keep their sizing.
	if gt.sawAny {
		fresh.observe(gt.maxRawID)
	}
	return fresh
}
