package core

import "sync/atomic"

// Stats aggregates the operation counters GraphTinker maintains. They feed
// the probe-distance / DRAM-traffic analyses in the evaluation (workblock
// retrievals model DRAM accesses at workblock granularity; cell inspections
// model the probe distance when following edges).
type Stats struct {
	// Operation counts.
	Inserts uint64 `json:"inserts"` // new edges placed
	Updates uint64 `json:"updates"` // duplicate inserts that patched an existing edge
	Deletes uint64 `json:"deletes"` // edges removed
	Finds   uint64 `json:"finds"`   // FindEdge calls

	// Probe behaviour (update paths: FIND / INSERT / DELETE; the read-only
	// iteration surface mutates nothing so concurrent readers stay safe).
	CellsInspected      uint64 `json:"cells_inspected"`      // edge cells touched while following edges
	WorkblocksRetrieved uint64 `json:"workblocks_retrieved"` // workblock fetches (the DRAM-traffic proxy)
	RHHSwaps            uint64 `json:"rhh_swaps"`            // Robin Hood displacements
	Branches            uint64 `json:"branches"`             // subblock branch-outs (child edgeblocks created)
	MaxGeneration       int    `json:"max_generation"`       // deepest descent observed

	// Structure lifecycle.
	BlocksAllocated uint64 `json:"blocks_allocated"`
	BlocksFreed     uint64 `json:"blocks_freed"`
	CompactionMoves uint64 `json:"compaction_moves"` // cells pulled up by delete-and-compact

	// Adaptive-representation migrations (slice→cuckoo is a promotion,
	// cuckoo→slice a demotion).
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`

	// CAL mirror.
	CALAppends uint64 `json:"cal_appends"`
	CALPatches uint64 `json:"cal_patches"` // weight patches + mirrored deletes (tombstones or compactions)

	// Seqlock mode machine of a Parallel's shards (see seqlock.go); all
	// zero for a lone GraphTinker. A shard builds a second replica when a
	// reader overlaps a writer and drops it once readers have stayed away;
	// Replicas is how many it holds now (1 or 2 in ShardStats, their sum
	// in Parallel.Stats).
	ShadowBuilds uint64 `json:"shadow_builds"`
	ShadowDrops  uint64 `json:"shadow_drops"`
	Replicas     int    `json:"replicas"`
}

// Add accumulates other into s (used by the sharded Parallel wrapper).
func (s *Stats) Add(other Stats) {
	s.Inserts += other.Inserts
	s.Updates += other.Updates
	s.Deletes += other.Deletes
	s.Finds += other.Finds
	s.CellsInspected += other.CellsInspected
	s.WorkblocksRetrieved += other.WorkblocksRetrieved
	s.RHHSwaps += other.RHHSwaps
	s.Branches += other.Branches
	if other.MaxGeneration > s.MaxGeneration {
		s.MaxGeneration = other.MaxGeneration
	}
	s.BlocksAllocated += other.BlocksAllocated
	s.BlocksFreed += other.BlocksFreed
	s.CompactionMoves += other.CompactionMoves
	s.Promotions += other.Promotions
	s.Demotions += other.Demotions
	s.CALAppends += other.CALAppends
	s.CALPatches += other.CALPatches
	s.ShadowBuilds += other.ShadowBuilds
	s.ShadowDrops += other.ShadowDrops
	s.Replicas += other.Replicas
}

// statsCounters is the atomic backing store for Stats. Mutation paths run
// single-threaded per instance (the Parallel wrapper serializes writers
// per shard and applies each batch to one replica at a time), but the
// counters are atomics so that (a) FindEdge — a logically read-only
// operation that still counts probe work — is safe to call from
// concurrent readers, and (b) Stats snapshots taken mid-batch by observer
// goroutines stay clean under the race detector. An instance records
// through a retargetable pointer: a lone GraphTinker points it at its own
// statsStore, a seqlock replica at its shard's counters — or at a scratch
// sink while it replays a batch or is being cloned; see seqlock.go for the
// exactly-once accounting.
type statsCounters struct {
	inserts, updates, deletes, finds        atomic.Uint64
	cellsInspected, workblocksRetrieved     atomic.Uint64
	rhhSwaps, branches                      atomic.Uint64
	maxGeneration                           atomic.Int64
	blocksAllocated, blocksFreed            atomic.Uint64
	compactionMoves, calAppends, calPatches atomic.Uint64
	promotions, demotions                   atomic.Uint64
	shadowBuilds, shadowDrops               atomic.Uint64
}

// observeGeneration raises maxGeneration to gen if it is deeper than any
// descent seen so far (atomic max).
func (s *statsCounters) observeGeneration(gen int) {
	for {
		cur := s.maxGeneration.Load()
		if int64(gen) <= cur || s.maxGeneration.CompareAndSwap(cur, int64(gen)) {
			return
		}
	}
}

// snapshot assembles a plain Stats from the atomic counters. Individual
// fields are each atomically consistent; a snapshot taken mid-operation may
// straddle an operation's increments.
func (s *statsCounters) snapshot() Stats {
	return Stats{
		Inserts:             s.inserts.Load(),
		Updates:             s.updates.Load(),
		Deletes:             s.deletes.Load(),
		Finds:               s.finds.Load(),
		CellsInspected:      s.cellsInspected.Load(),
		WorkblocksRetrieved: s.workblocksRetrieved.Load(),
		RHHSwaps:            s.rhhSwaps.Load(),
		Branches:            s.branches.Load(),
		MaxGeneration:       int(s.maxGeneration.Load()),
		BlocksAllocated:     s.blocksAllocated.Load(),
		BlocksFreed:         s.blocksFreed.Load(),
		CompactionMoves:     s.compactionMoves.Load(),
		Promotions:          s.promotions.Load(),
		Demotions:           s.demotions.Load(),
		CALAppends:          s.calAppends.Load(),
		CALPatches:          s.calPatches.Load(),
		ShadowBuilds:        s.shadowBuilds.Load(),
		ShadowDrops:         s.shadowDrops.Load(),
	}
}

// reset zeroes every counter.
func (s *statsCounters) reset() {
	s.inserts.Store(0)
	s.updates.Store(0)
	s.deletes.Store(0)
	s.finds.Store(0)
	s.cellsInspected.Store(0)
	s.workblocksRetrieved.Store(0)
	s.rhhSwaps.Store(0)
	s.branches.Store(0)
	s.maxGeneration.Store(0)
	s.blocksAllocated.Store(0)
	s.blocksFreed.Store(0)
	s.compactionMoves.Store(0)
	s.promotions.Store(0)
	s.demotions.Store(0)
	s.calAppends.Store(0)
	s.calPatches.Store(0)
	s.shadowBuilds.Store(0)
	s.shadowDrops.Store(0)
}

// MemoryFootprint accounts the resident bytes of an instance per component.
type MemoryFootprint struct {
	EdgeblockArrayBytes uint64
	CALBytes            uint64
	SGHBytes            uint64
	VertexPropsBytes    uint64
	// ContainerBytes is the per-vertex adaptor array plus the
	// container-owned buffers (slice entries and cuckoo tables, including
	// buffers kept for reuse after a migration). Block storage is in
	// EdgeblockArrayBytes.
	ContainerBytes uint64
}

// Total sums all components.
func (m MemoryFootprint) Total() uint64 {
	return m.EdgeblockArrayBytes + m.CALBytes + m.SGHBytes + m.VertexPropsBytes + m.ContainerBytes
}

// Occupancy describes how compactly the EdgeblockArray stores the live edge
// set: LiveEdges over CellsAllocated is the fill fraction the SGH/CAL
// compaction experiments (Sec. V.B) measure.
type Occupancy struct {
	LiveEdges      uint64
	CellsAllocated uint64
	LiveBlocks     int
	FreeBlocks     int
	// SliceSlots / CuckooSlots count the allocated entries of every slice
	// buffer and cuckoo table: capacity, not length, and including the
	// buffers a vertex keeps for reuse after migrating out of a format. So
	// Fill compares like with like across formats: live edges over every
	// edge slot the instance holds.
	SliceSlots    uint64
	CuckooSlots   uint64
	CALLiveEdges  uint64
	CALSlots      uint64
	CALLiveBlocks int
}

// Fill is the fraction of allocated edge-storage slots (block cells plus
// slice and cuckoo slots) holding a live edge.
func (o Occupancy) Fill() float64 {
	total := o.CellsAllocated + o.SliceSlots + o.CuckooSlots
	if total == 0 {
		return 0
	}
	return float64(o.LiveEdges) / float64(total)
}

// CALFill is the fraction of reachable CAL slots holding a live edge copy.
func (o Occupancy) CALFill() float64 {
	if o.CALSlots == 0 {
		return 0
	}
	return float64(o.CALLiveEdges) / float64(o.CALSlots)
}
