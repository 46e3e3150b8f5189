package core

import (
	"math"
	"testing"
)

// checkSGH verifies the index against its oracle: every key finds its id,
// toRaw reverses it, the table is a power of two at most 3/4 full with one
// slot per id, and memoryBytes is the exact count.
func checkSGH(t *testing.T, s *scatterGather, oracle map[uint64]uint32) {
	t.Helper()
	if s.count() != len(oracle) {
		t.Fatalf("count = %d, oracle holds %d", s.count(), len(oracle))
	}
	n := len(s.slots)
	if n < sghMinSlots || n&(n-1) != 0 || s.mask != uint64(n-1) {
		t.Fatalf("table of %d slots, mask %#x", n, s.mask)
	}
	if len(oracle)*4 > n*3 {
		t.Fatalf("%d ids in %d slots: load over 3/4", len(oracle), n)
	}
	used := 0
	for _, v := range s.slots {
		if v != 0 {
			used++
		}
	}
	if used != len(oracle) {
		t.Fatalf("%d slots used for %d ids", used, len(oracle))
	}
	for raw, d := range oracle {
		if got, ok := s.lookup(raw); !ok || got != d {
			t.Fatalf("lookup(%#x) = (%d, %v), oracle says %d", raw, got, ok, d)
		}
		if s.raw(d) != raw {
			t.Fatalf("raw(%d) = %#x, want %#x", d, s.raw(d), raw)
		}
	}
	if want := uint64(n)*4 + uint64(cap(s.toRaw))*8; s.memoryBytes() != want {
		t.Fatalf("memoryBytes = %d, want %d", s.memoryBytes(), want)
	}
}

// sghKey spreads a small fuzzed value over the shapes TestSGHProbeBound
// builds, so short inputs still collide in the low or the high word.
func sghKey(shape, v byte) uint64 {
	k := uint64(v)
	switch shape % 4 {
	case 1:
		return k << 32
	case 2:
		return k << 56
	case 3:
		return k<<20 | 0xabcde
	}
	return k
}

// FuzzSGHIndex drives the index through assign, lookup, reserve and grow
// steps and checks it against a map oracle after every step. Reserve and
// grow stop adding ids at sghFuzzIDs, so a long input stays fast.
func FuzzSGHIndex(f *testing.F) {
	const sghFuzzIDs = 1 << 10
	f.Add([]byte{0, 1, 0, 2, 4, 1, 8, 7})
	f.Add([]byte{3, 200, 2, 9, 0, 9, 1, 9, 5, 9, 6, 9})
	f.Add([]byte{11, 40, 15, 255, 2, 3, 7, 40})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newScatterGather(0)
		oracle := make(map[uint64]uint32)
		fresh := uint64(1) << 40
		for i := 0; i+1 < len(data); i += 2 {
			op, v := data[i], data[i+1]
			raw := sghKey(op>>2, v)
			switch op % 4 {
			case 0: // assign
				d := s.assign(raw)
				if want, ok := oracle[raw]; ok && d != want {
					t.Fatalf("assign(%#x) = %d, first assigned %d", raw, d, want)
				} else if !ok && d != uint32(len(oracle)) {
					t.Fatalf("new key %#x got id %d, want %d", raw, d, len(oracle))
				}
				oracle[raw] = d
			case 1: // lookup
				d, ok := s.lookup(raw)
				if want, in := oracle[raw]; ok != in || (ok && d != want) {
					t.Fatalf("lookup(%#x) = (%d, %v), oracle (%d, %v)", raw, d, ok, want, in)
				}
			case 2: // reserve: room for v more ids must not move any
				if len(oracle) >= sghFuzzIDs {
					break
				}
				slots := len(s.slots)
				s.reserve(len(oracle) + int(v))
				grown := len(s.slots)
				for j := 0; j < int(v); j++ {
					oracle[fresh] = s.assign(fresh)
					fresh++
				}
				if len(s.slots) != grown || grown < slots {
					t.Fatalf("reserve(%d) left %d slots, then %d after the assigns", len(oracle), grown, len(s.slots))
				}
			case 3: // grow: enough new ids to double the table at least once
				for n := len(s.slots); len(s.slots) == n && len(oracle) < sghFuzzIDs; fresh++ {
					oracle[fresh] = s.assign(fresh)
				}
			}
			checkSGH(t, s, oracle)
		}
	})
}

// longestRun is the longest run of occupied slots, wrapping around: the
// most slots any lookup, hit or miss, can probe.
func longestRun(slots []uint32) int {
	longest, run := 0, 0
	for i := 0; i < 2*len(slots); i++ {
		if slots[i%len(slots)] == 0 {
			run = 0
			continue
		}
		if run++; run > longest {
			longest = run
		}
	}
	return min(longest, len(slots))
}

// TestSGHProbeBound builds 1<<20 keys of four shapes and checks the longest
// probe run each time the table reaches 3/4 load, just before it doubles.
//
// The bound: for linear probing with a random hash at load a, the largest
// cluster of n keys grows as ln(n)/(a-1-ln a) (Pittel 1987, "Linear probing:
// the probable largest search time grows logarithmically with the number of
// records"); at a = 3/4, 26.5 ln n. The test allows twice that: 720 slots
// at the last check (786,432 keys in 2^20 slots). Measured over ten runs
// of the four shapes, the worst check of each read 170–289 slots. Hashing
// the raw id without mixing would put every stride-2^32 key on slot 0,
// one run of all the keys.
func TestSGHProbeBound(t *testing.T) {
	const keys = 1 << 20
	a := 0.75
	perLn := 1 / (a - 1 - math.Log(a))
	shapes := []struct {
		name string
		key  func(i uint64) uint64
	}{
		{"sequential", func(i uint64) uint64 { return i }},
		{"stride 1<<32", func(i uint64) uint64 { return i << 32 }},
		{"high word only", func(i uint64) uint64 { return i << 44 }},
		{"shared low 20 bits", func(i uint64) uint64 { return i<<20 | 0xabcde }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			s := newScatterGather(0)
			worst := 0
			for i := uint64(0); i < keys; i++ {
				s.assign(sh.key(i))
				if n := s.count(); n*4 == len(s.slots)*3 {
					bound := int(2 * perLn * math.Log(float64(n)))
					run := longestRun(s.slots)
					if run >= bound {
						t.Fatalf("%d keys in %d slots: longest probe run %d, bound %d", n, len(s.slots), run, bound)
					}
					worst = max(worst, run)
				}
			}
			if s.count() != keys {
				t.Fatalf("count = %d, want %d", s.count(), keys)
			}
			t.Logf("longest run at 3/4 load: %d", worst)
		})
	}
}
