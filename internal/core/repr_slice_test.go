package core

import (
	"bytes"
	"testing"
)

// TestSliceGrowthFill pins the slice tier's growth rule on a skewed insert
// stream: a full slice grows by a 1/sliceGrowDiv share of its length into a
// whole size class, so the slices stay mostly full and none holds more
// than one growth step of room; and the bulk loader's pre-sizing (snapshot
// recovery, the seqlock's clone) buys exactly the class the degree lands
// in. append's doubling (about 70% full, up to twice the length) and an
// exact-degree make both fail it.
func TestSliceGrowthFill(t *testing.T) {
	g := MustNew(DefaultConfig())
	g.InsertBatch(benchEdges(400_000, 8192, 7))

	var live, slots int
	for d := range g.cont {
		ac := &g.cont[d]
		if ac.kind != reprSlice {
			continue
		}
		n, c := len(ac.slice.entries), cap(ac.slice.entries)
		live, slots = live+n, slots+c
		if step := cap(sliceBuf(n + max(n/sliceGrowDiv, 1))); c > step {
			t.Fatalf("dense %d: %d entries in a slice of capacity %d, above one growth step (%d)", d, n, c, step)
		}
	}
	if live == 0 {
		t.Fatal("no slice vertices")
	}
	if fill := float64(live) / float64(slots); fill < 0.85 {
		t.Errorf("slice fill %.3f (%d live / %d slots) below 0.85", fill, live, slots)
	}

	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	cloned := MustNew(g.Config())
	g.cloneInto(cloned)
	for name, b := range map[string]*GraphTinker{"ReadSnapshot": loaded, "cloneInto": cloned} {
		for d := range b.cont {
			ac := &b.cont[d]
			if ac.kind != reprSlice {
				continue
			}
			n := len(ac.slice.entries)
			if c, want := cap(ac.slice.entries), cap(sliceBuf(n)); c != want {
				t.Fatalf("%s: dense %d bulk-loaded %d entries into capacity %d, want the class size %d", name, d, n, c, want)
			}
		}
	}
}
