package core

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

func TestCALPtrPacking(t *testing.T) {
	// A calPtr is a flat slot index; it must address the same entry as
	// (block, slot) on both sides of a chunk boundary.
	c := newCALArray(1024, 4)
	for c.numBlocks < 2*c.blocksPerChunk+5 {
		c.allocBlock()
	}
	for _, b := range []int32{0, 1, int32(c.blocksPerChunk - 1), int32(c.blocksPerChunk), int32(2*c.blocksPerChunk + 4)} {
		for slot := int32(0); slot < int32(c.blockSize); slot++ {
			p := c.ptr(b, slot)
			if !p.valid() || c.blockOf(p) != b {
				t.Fatalf("ptr(%d,%d) = %d: valid=%v block %d", b, slot, p, p.valid(), c.blockOf(p))
			}
			if c.entryAt(p) != &c.blockEntries(b)[slot] {
				t.Fatalf("entryAt and blockEntries disagree for block %d slot %d", b, slot)
			}
		}
	}
	if invalidCALPtr.valid() {
		t.Fatalf("invalid sentinel reported valid")
	}
}

// TestEntryLayout pins the slice and cuckoo entry at 12 B (no padding),
// the CAL entry at 16 B, the per-vertex adaptor at 48 B at most, and the
// 32-bit CAL pointer's bound: the last slot below it is reachable, and the
// first block past it panics instead of wrapping a pointer.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(edgeEntry{}); got != 12 {
		t.Errorf("edgeEntry is %d B, want 12", got)
	}
	if got := unsafe.Sizeof(adaptiveContainer{}); got > 48 {
		t.Errorf("adaptiveContainer is %d B, want at most 48", got)
	}
	if got := unsafe.Sizeof(calEntry{}); got != 16 {
		t.Errorf("calEntry is %d B, want 16", got)
	}

	// A one-slot block runs out of int32 block ids before it runs out of
	// pointer space.
	if c := newCALArray(1024, 1); c.maxBlocks != math.MaxInt32 {
		t.Errorf("1-slot blocks: maxBlocks = %d, want %d", c.maxBlocks, math.MaxInt32)
	}

	c := newCALArray(1024, 4)
	last := c.ptr(int32(c.maxBlocks-1), int32(c.blockSize-1))
	if !last.valid() || uint64(last) != uint64(c.maxBlocks)*uint64(c.blockSize)-1 || c.blockOf(last) != int32(c.maxBlocks-1) {
		t.Fatalf("last slot below the bound: ptr %d (valid=%v, block %d)", last, last.valid(), c.blockOf(last))
	}
	if uint64(c.maxBlocks+1)*uint64(c.blockSize) <= uint64(invalidCALPtr) {
		t.Fatalf("maxBlocks %d leaves room for another block of %d slots", c.maxBlocks, c.blockSize)
	}

	// Preset the block count at the bound, as delete-only churn would leave
	// it, and ask for one more block.
	c.numBlocks = c.maxBlocks
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "32-bit CAL pointer") {
			t.Fatalf("append past the bound: recovered %v, want a CAL pointer panic", r)
		}
	}()
	c.append(0, 1, 1)
	t.Fatalf("append past the bound returned")
}

func TestCALGroupsShareBlocks(t *testing.T) {
	// Several source vertices of one group must pack into the same CAL
	// block — the defining property of the Coarse Adjacency List.
	c := newCALArray(1024, 256)
	for v := uint32(0); v < 100; v++ {
		c.append(v, uint64(v+1), 1)
	}
	if c.liveBlocks != 1 {
		t.Fatalf("100 edges from one group spread over %d blocks, want 1", c.liveBlocks)
	}
	// A source from another group opens a new chain.
	c.append(5000, 1, 1)
	if c.liveBlocks != 2 {
		t.Fatalf("second group should open its own block chain; blocks = %d", c.liveBlocks)
	}
}

func TestCALChainGrowth(t *testing.T) {
	c := newCALArray(1024, 4)
	for i := 0; i < 10; i++ {
		c.append(0, uint64(i), 1)
	}
	if c.liveBlocks != 3 {
		t.Fatalf("10 edges / 4-slot blocks should use 3 blocks, got %d", c.liveBlocks)
	}
	var got []uint64
	c.forEach(nil, func(src, dst uint64, w float32) bool {
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
	for i := 0; i < 8; i++ {
		c.append(0, uint64(i), 1)
	}
	// Remove everything, tail-last entries directly; blocks must return to
	// the free list.
	for c.liveEdges > 0 {
		tail := c.groupTail[0]
		c.removeCompact(c.ptr(tail, c.used[tail]-1), 0)
	}
	if c.liveBlocks != 0 {
		t.Fatalf("liveBlocks = %d after removing all entries", c.liveBlocks)
	}
	if len(c.freeList) != 2 {
		t.Fatalf("free list has %d blocks, want 2", len(c.freeList))
	}
	// New appends must reuse freed blocks.
	c.append(0, 99, 1)
	if c.numBlocks != 2 {
		t.Fatalf("append after free allocated a fresh block; numBlocks = %d", c.numBlocks)
	}
}

// The owner of a CAL entry is the container of its dense source id: a
// compaction that moves an entry must report which container to re-point.
func TestCALRemoveCompactPatchesMovedOwner(t *testing.T) {
	c := newCALArray(1024, 8)
	p0 := c.append(3, 10, 1)
	c.append(4, 11, 1)
	p2 := c.append(5, 12, 1)
	// Removing the first entry must move the last entry (dense 5) into its
	// slot and report that entry's identity for re-pointing.
	moved, ok := c.removeCompact(p0, 3)
	if !ok || moved.src != 5 || moved.dst != 12 {
		t.Fatalf("moved = %+v (ok=%v), want dense 5 dst 12", moved, ok)
	}
	if e := c.entryAt(p0); *e != moved {
		t.Fatalf("hole not filled by tail entry: %+v", e)
	}
	// Removing the (now stale) tail position must not be observable: the
	// old tail slot is dead.
	if c.used[c.blockOf(p2)] != 2 {
		t.Fatalf("used cursor = %d, want 2", c.used[c.blockOf(p2)])
	}
	// Removing the tail entry itself moves nothing.
	tailPtr := c.ptr(c.groupTail[0], c.used[c.groupTail[0]]-1)
	if moved, ok := c.removeCompact(tailPtr, 4); ok {
		t.Fatalf("removing tail reported a move: %+v", moved)
	}
}

func TestCALLiveSetMatchesEdgeblockArray(t *testing.T) {
	// Property: the set of live CAL entries always equals the live edge set
	// of the EdgeblockArray, under both delete modes.
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := blocksConfig()
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
			gt.cal.forEach(gt.sgh.toRaw, func(src, dst uint64, w float32) bool {
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
	// Every valid CAL entry's owner — the block tree of its dense source id
	// — must store the edge with a calPtr pointing back at the entry, under
	// heavy churn in both modes.
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
						if e.src == calTombstone {
							continue
						}
						p, found := gt.cont[e.src].blocks().calPtrOf(e.dst)
						if !found {
							t.Fatalf("CAL entry (dense %d,%d) not stored by its block tree", e.src, e.dst)
						}
						if p != c.ptr(b, s) {
							t.Fatalf("cell calPtr %d does not point back at %d", p, c.ptr(b, s))
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
