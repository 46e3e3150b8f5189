package core

import "testing"

func TestCALPtrPacking(t *testing.T) {
	p := makeCALPtr(123456, 789)
	if p.block() != 123456 || p.slot() != 789 {
		t.Fatalf("round trip = (%d,%d)", p.block(), p.slot())
	}
	if !p.valid() {
		t.Fatalf("packed pointer should be valid")
	}
	if invalidCALPtr.valid() {
		t.Fatalf("invalid sentinel reported valid")
	}
}

func TestCALGroupsShareBlocks(t *testing.T) {
	// Several source vertices of one group must pack into the same CAL
	// block — the defining property of the Coarse Adjacency List.
	c := newCALArray(1024, 256)
	for v := uint32(0); v < 100; v++ {
		c.append(v, uint64(v), uint64(v+1), 1, invalidCellAddr)
	}
	if c.liveBlocks != 1 {
		t.Fatalf("100 edges from one group spread over %d blocks, want 1", c.liveBlocks)
	}
	// A source from another group opens a new chain.
	c.append(5000, 5000, 1, 1, invalidCellAddr)
	if c.liveBlocks != 2 {
		t.Fatalf("second group should open its own block chain; blocks = %d", c.liveBlocks)
	}
}

func TestCALChainGrowth(t *testing.T) {
	c := newCALArray(1024, 4)
	for i := 0; i < 10; i++ {
		c.append(0, 0, uint64(i), 1, invalidCellAddr)
	}
	if c.liveBlocks != 3 {
		t.Fatalf("10 edges / 4-slot blocks should use 3 blocks, got %d", c.liveBlocks)
	}
	var got []uint64
	c.forEach(func(src, dst uint64, w float32) bool {
		got = append(got, dst)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("stream returned %d edges, want 10", len(got))
	}
	// CAL preserves arrival order within a group.
	for i, dst := range got {
		if dst != uint64(i) {
			t.Fatalf("stream order broken at %d: got %d", i, dst)
		}
	}
}

func TestCALRemoveCompactReusesBlocks(t *testing.T) {
	c := newCALArray(1024, 4)
	ptrs := make([]calPtr, 0, 8)
	for i := 0; i < 8; i++ {
		ptrs = append(ptrs, c.append(0, 0, uint64(i), 1, cellAddr(i)))
	}
	// Remove everything; blocks must return to the free list.
	for c.liveEdges > 0 {
		// Always remove the entry currently at ptrs[0]'s position by
		// resolving a live pointer: remove tail-last entries directly.
		tail := c.groupTail[0]
		last := makeCALPtr(tail, c.used[tail]-1)
		c.removeCompact(last, 0)
	}
	if c.liveBlocks != 0 {
		t.Fatalf("liveBlocks = %d after removing all entries", c.liveBlocks)
	}
	if len(c.freeList) != 2 {
		t.Fatalf("free list has %d blocks, want 2", len(c.freeList))
	}
	// New appends must reuse freed blocks.
	c.append(0, 0, 99, 1, invalidCellAddr)
	if c.numBlocks != 2 {
		t.Fatalf("append after free allocated a fresh block; numBlocks = %d", c.numBlocks)
	}
	_ = ptrs
}

func TestCALRemoveCompactPatchesMovedOwner(t *testing.T) {
	c := newCALArray(1024, 8)
	p0 := c.append(0, 0, 10, 1, cellAddr(100))
	c.append(0, 0, 11, 1, cellAddr(101))
	p2 := c.append(0, 0, 12, 1, cellAddr(102))
	// Removing the first entry must move the last entry (owner 102) into
	// its slot and report that entry's identity for re-pointing.
	moved := c.removeCompact(p0, 0)
	if !moved.moved || moved.owner != cellAddr(102) {
		t.Fatalf("moved = %+v, want owner 102", moved)
	}
	if moved.src != 0 || moved.dst != 12 {
		t.Fatalf("moved identity = (%d,%d), want (0,12)", moved.src, moved.dst)
	}
	e := c.entryAt(p0)
	if e.dst != 12 || !e.valid {
		t.Fatalf("hole not filled by tail entry: %+v", e)
	}
	// Removing the (now stale) tail position must not be observable: the
	// old tail slot is dead.
	if c.used[p2.block()] != 2 {
		t.Fatalf("used cursor = %d, want 2", c.used[p2.block()])
	}
	// Removing the tail entry itself moves nothing.
	tailPtr := makeCALPtr(c.groupTail[0], c.used[c.groupTail[0]]-1)
	if moved := c.removeCompact(tailPtr, 0); moved.moved {
		t.Fatalf("removing tail reported a move: %+v", moved)
	}
}

func TestCALLiveSetMatchesEdgeblockArray(t *testing.T) {
	// Property: the set of live CAL entries always equals the live edge set
	// of the EdgeblockArray, under both delete modes.
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DeleteMode = mode
			gt := MustNew(cfg)
			r := &testRand{s: 777}
			type key struct{ src, dst uint64 }
			live := make(map[key]float32)
			for i := 0; i < 20000; i++ {
				src, dst := uint64(r.intn(80)), uint64(r.intn(800))
				if r.intn(3) == 0 {
					gt.DeleteEdge(src, dst)
					delete(live, key{src, dst})
				} else {
					w := r.float32()
					gt.InsertEdge(src, dst, w)
					live[key{src, dst}] = w
				}
			}
			got := make(map[key]float32)
			gt.cal.forEach(func(src, dst uint64, w float32) bool {
				k := key{src, dst}
				if _, dup := got[k]; dup {
					t.Fatalf("CAL yielded duplicate edge %v", k)
				}
				got[k] = w
				return true
			})
			if len(got) != len(live) {
				t.Fatalf("CAL live set has %d edges, want %d", len(got), len(live))
			}
			for k, w := range live {
				if gw, ok := got[k]; !ok || gw != w {
					t.Fatalf("CAL mismatch for %v: got (%g,%v) want %g", k, gw, ok, w)
				}
			}
		})
	}
}

func TestCALOwnerBackPointersConsistent(t *testing.T) {
	// Every valid CAL entry's owner must point at an occupied cell whose
	// calPtr points back at the entry — under heavy churn in both modes.
	// Only block cells own their entries, so the block format is pinned.
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := blocksConfig()
			cfg.DeleteMode = mode
			gt := MustNew(cfg)
			r := &testRand{s: 999}
			for i := 0; i < 25000; i++ {
				src, dst := uint64(r.intn(40)), uint64(r.intn(2000))
				if r.intn(3) == 0 {
					gt.DeleteEdge(src, dst)
				} else {
					gt.InsertEdge(src, dst, 1)
				}
			}
			c := gt.cal
			checked := 0
			for g := range c.groupHead {
				for b := c.groupHead[g]; b != noBlock; b = c.next[b] {
					for s := int32(0); s < c.used[b]; s++ {
						e := &c.blockEntries(b)[s]
						if !e.valid {
							continue
						}
						cell := gt.eba.cellAt(e.owner)
						if cell.state != cellOccupied {
							t.Fatalf("CAL entry (%d,%d) owner cell not occupied", e.src, e.dst)
						}
						if cell.dst != e.dst {
							t.Fatalf("owner cell dst %d != entry dst %d", cell.dst, e.dst)
						}
						if cell.calPtr != makeCALPtr(b, s) {
							t.Fatalf("owner cell calPtr does not point back")
						}
						checked++
					}
				}
			}
			if uint64(checked) != gt.NumEdges() {
				t.Fatalf("checked %d back-pointers, want %d", checked, gt.NumEdges())
			}
		})
	}
}

func TestSGHAssignIsSequential(t *testing.T) {
	s := newScatterGather(0)
	ids := []uint64{900, 4, 900, 7, 4, 1 << 50}
	want := []uint32{0, 1, 0, 2, 1, 3}
	for i, raw := range ids {
		if got := s.assign(raw); got != want[i] {
			t.Fatalf("assign(%d) = %d, want %d", raw, got, want[i])
		}
	}
	if s.count() != 4 {
		t.Fatalf("count = %d, want 4", s.count())
	}
}

func TestSGHRoundTrip(t *testing.T) {
	s := newScatterGather(16)
	r := &testRand{s: 123}
	seen := make(map[uint64]uint32)
	for i := 0; i < 5000; i++ {
		raw := r.next() >> r.intn(40) // mix of small and huge ids
		d := s.assign(raw)
		if prev, ok := seen[raw]; ok && prev != d {
			t.Fatalf("assign(%d) changed: %d -> %d", raw, prev, d)
		}
		seen[raw] = d
		if s.raw(d) != raw {
			t.Fatalf("raw(%d) = %d, want %d", d, s.raw(d), raw)
		}
		if got, ok := s.lookup(raw); !ok || got != d {
			t.Fatalf("lookup(%d) = (%d,%v)", raw, got, ok)
		}
	}
	if _, ok := s.lookup(0xdeadbeefdeadbeef); ok && seen[0xdeadbeefdeadbeef] == 0 {
		// only fails if the id was never assigned
		if _, assigned := seen[0xdeadbeefdeadbeef]; !assigned {
			t.Fatalf("lookup invented a mapping")
		}
	}
}
