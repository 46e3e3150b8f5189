package core

// scatterGather implements the Scatter-Gather Hashing unit (Sec. III.B).
// The "hash" of a never-seen source vertex id is simply the next unused
// index of the EdgeblockArray main region, so dense ids are assigned
// 0, 1, 2, ... in arrival order and the main region contains only non-empty
// vertices. The table maintains the mapping in both directions.
type scatterGather struct {
	toDense map[uint64]uint32
	toRaw   []uint64
}

func newScatterGather(capacity int) *scatterGather {
	return &scatterGather{
		toDense: make(map[uint64]uint32, capacity),
		toRaw:   make([]uint64, 0, capacity),
	}
}

// lookup returns the dense id previously assigned to raw, if any.
func (s *scatterGather) lookup(raw uint64) (uint32, bool) {
	d, ok := s.toDense[raw]
	return d, ok
}

// assign returns the dense id for raw, allocating the next unused index on
// first sight.
func (s *scatterGather) assign(raw uint64) uint32 {
	if d, ok := s.toDense[raw]; ok {
		return d
	}
	d := uint32(len(s.toRaw))
	s.toDense[raw] = d
	s.toRaw = append(s.toRaw, raw)
	return d
}

// raw reverses a dense id back to the application-level vertex id.
func (s *scatterGather) raw(dense uint32) uint64 { return s.toRaw[dense] }

// count is the number of non-empty source vertices hashed so far.
func (s *scatterGather) count() int { return len(s.toRaw) }

func (s *scatterGather) memoryBytes() uint64 {
	// The reverse slice is exact; a map entry is an estimate of 24 bytes
	// (a 12-byte key/value pair padded to 16, its control byte, and the
	// table's slack between growths).
	return uint64(cap(s.toRaw))*8 + uint64(len(s.toDense))*24
}
