package core

import (
	"fmt"
	"math"
)

// Edge is a weighted directed edge between two raw (application-level)
// vertex ids. GraphTinker stores out-edges keyed by Src.
type Edge struct {
	Src    uint64
	Dst    uint64
	Weight float32
}

func (e Edge) String() string {
	return fmt.Sprintf("(%d->%d w=%g)", e.Src, e.Dst, e.Weight)
}

// cellState tracks the lifecycle of one edge cell in the EdgeblockArray.
type cellState uint8

const (
	cellEmpty cellState = iota
	cellOccupied
	// cellTombstone marks a cell whose edge was removed by the delete-only
	// mechanism. Tombstones are reusable by later insertions but are still
	// traversed when following edges, which is what causes the delete-only
	// throughput decay measured in Fig. 14/15.
	cellTombstone
)

// edgeCell is the most primitive unit of the EdgeblockArray (the paper's
// "edge-cell"). It records the destination vertex, the edge weight, the
// Robin-Hood probe distance of the cell relative to its home slot within its
// subblock, and a pointer to the edge's copy in the CAL EdgeblockArray.
type edgeCell struct {
	dst    uint64
	calPtr calPtr
	weight float32
	probe  uint16
	state  cellState
}

// edgeEntry is one stored edge of the slice and cuckoo formats: the
// destination, the CAL mirror pointer (invalidCALPtr when CAL is off) and
// the weight — 16 B with no padding. Both tiers hold the same record, so a
// migration copies whole entries.
type edgeEntry struct {
	dst    uint64
	calPtr calPtr
	weight float32
}

// calPtr is the flat index of one CAL slot: block*CALBlockSize + slot.
// Thirty-two bits are what keep edgeEntry at 16 B; calArray.allocBlock
// refuses to grow the mirror past them.
type calPtr uint32

const invalidCALPtr = calPtr(math.MaxUint32)

func (p calPtr) valid() bool { return p != invalidCALPtr }
