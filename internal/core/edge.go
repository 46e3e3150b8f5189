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
// destination, split into two 32-bit words, and the weight — 12 B with
// 4-byte alignment, so no byte of it is padding (a uint64 field would pad
// the record to 16). Both tiers hold the same record, so a migration copies
// whole entries. Neither tier has a CAL copy to point at: the mirror
// belongs to the block tree.
type edgeEntry struct {
	lo, hi uint32
	weight float32
}

func mkEntry(dst uint64, w float32) edgeEntry {
	return edgeEntry{lo: uint32(dst), hi: uint32(dst >> 32), weight: w}
}

// d returns the entry's destination.
func (e edgeEntry) d() uint64 { return uint64(e.hi)<<32 | uint64(e.lo) }

// calPtr is the flat index of one CAL slot: block*CALBlockSize + slot.
// It is 32 bits wide; calArray.allocBlock refuses to grow the mirror past
// them.
type calPtr uint32

const invalidCALPtr = calPtr(math.MaxUint32)

func (p calPtr) valid() bool { return p != invalidCALPtr }
