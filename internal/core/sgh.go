package core

import "math/rand/v2"

// scatterGather implements the Scatter-Gather Hashing unit (Sec. III.B).
// The "hash" of a never-seen source vertex id is simply the next unused
// index of the EdgeblockArray main region, so dense ids are assigned
// 0, 1, 2, ... in arrival order and the main region contains only non-empty
// vertices. The table maintains the mapping in both directions.
//
// The forward direction is an open-addressed table of uint32 slots, each
// holding dense id + 1 (0 is empty); a slot's key is read back through
// toRaw, so a vertex costs 4 B of slots plus its 8 B toRaw entry. Probing
// is linear from mix64(raw ^ seed), the load stays at most 3/4, and growth
// doubles the table and re-inserts every id from toRaw. The seed is drawn
// per table: nothing observable depends on slot order, and a fixed seed
// would let chosen keys build one long probe run (DESIGN §3 "The SGH
// index").
type scatterGather struct {
	slots []uint32 // power-of-two length; dense id + 1, 0 = empty
	mask  uint64   // len(slots) - 1
	seed  uint64
	toRaw []uint64
}

// sghMinSlots is the smallest table: a power of two that holds a few ids
// before the first doubling.
const sghMinSlots = 8

func newScatterGather(capacity int) *scatterGather {
	s := &scatterGather{seed: rand.Uint64()}
	s.reserve(capacity)
	return s
}

// home is raw's first probe slot.
func (s *scatterGather) home(raw uint64) uint64 { return mix64(raw^s.seed) & s.mask }

// lookup returns the dense id previously assigned to raw, if any.
func (s *scatterGather) lookup(raw uint64) (uint32, bool) {
	for i := s.home(raw); ; i = (i + 1) & s.mask {
		v := s.slots[i]
		if v == 0 {
			return 0, false
		}
		if s.toRaw[v-1] == raw {
			return v - 1, true
		}
	}
}

// assign returns the dense id for raw, allocating the next unused index on
// first sight.
func (s *scatterGather) assign(raw uint64) uint32 {
	i := s.home(raw)
	for ; s.slots[i] != 0; i = (i + 1) & s.mask {
		if d := s.slots[i] - 1; s.toRaw[d] == raw {
			return d
		}
	}
	d := uint32(len(s.toRaw))
	s.toRaw = append(s.toRaw, raw)
	if len(s.toRaw)*4 > len(s.slots)*3 {
		s.rehash(2 * len(s.slots)) // places d too
	} else {
		s.slots[i] = d + 1
	}
	return d
}

// reserve sizes the table and toRaw for n ids, so assigning up to n never
// rehashes or re-grows.
func (s *scatterGather) reserve(n int) {
	size := sghMinSlots
	for size*3 < n*4 {
		size *= 2
	}
	if size > len(s.slots) {
		s.rehash(size)
	}
	if n > cap(s.toRaw) {
		s.toRaw = append(make([]uint64, 0, n), s.toRaw...)
	}
}

// rehash rebuilds the slots at the given power-of-two size from toRaw.
func (s *scatterGather) rehash(size int) {
	s.slots, s.mask = make([]uint32, size), uint64(size-1)
	for d, raw := range s.toRaw {
		i := s.home(raw)
		for s.slots[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = uint32(d) + 1
	}
}

// raw reverses a dense id back to the application-level vertex id.
func (s *scatterGather) raw(dense uint32) uint64 { return s.toRaw[dense] }

// count is the number of non-empty source vertices hashed so far.
func (s *scatterGather) count() int { return len(s.toRaw) }

// memoryBytes is exact: 4 B a slot plus 8 B per toRaw entry of capacity.
func (s *scatterGather) memoryBytes() uint64 {
	return uint64(len(s.slots))*4 + uint64(cap(s.toRaw))*8
}
