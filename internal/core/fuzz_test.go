package core

// Native fuzz targets. Under plain `go test` they run with the seed corpus
// below; `go test -fuzz FuzzGraphOps ./internal/core` explores further.

import (
	"bytes"
	"testing"
)

// FuzzGraphOps decodes an arbitrary byte string into a mutation script and
// checks full equivalence against the reference graph plus structural
// invariants, under both delete modes.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{7, 3}, 64))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
			cfg := DefaultConfig()
			cfg.DeleteMode = mode
			cfg.PageWidth = 16 // small geometry branches sooner
			gt := MustNew(cfg)
			ref := newRefGraph()
			for i := 0; i+2 < len(data); i += 3 {
				op, s, d := data[i], uint64(data[i+1]%32), uint64(data[i+2]%64)
				switch op % 3 {
				case 0, 1:
					w := float32(op) + 1
					if gt.InsertEdge(s, d, w) != ref.insert(s, d, w) {
						t.Fatalf("insert divergence at %d", i)
					}
				case 2:
					if gt.DeleteEdge(s, d) != ref.delete(s, d) {
						t.Fatalf("delete divergence at %d", i)
					}
				}
			}
			if gt.NumEdges() != ref.numEdges() {
				t.Fatalf("edge counts diverged: %d vs %d", gt.NumEdges(), ref.numEdges())
			}
			for src, m := range ref.adj {
				for dst, w := range m {
					got, ok := gt.FindEdge(src, dst)
					if !ok || got != w {
						t.Fatalf("FindEdge(%d,%d) = (%g,%v), want %g", src, dst, got, ok, w)
					}
				}
			}
			if v := gt.CheckInvariants(); len(v) != 0 {
				t.Fatalf("invariants: %v", v)
			}
		}
	})
}

// FuzzSnapshot checks that snapshots of fuzzed graphs round-trip exactly.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		gt := MustNew(DefaultConfig())
		for i := 0; i+2 < len(data); i += 3 {
			gt.InsertEdge(uint64(data[i]), uint64(data[i+1]), float32(data[i+2]))
		}
		var buf bytes.Buffer
		if err := gt.WriteSnapshot(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		restored, err := ReadSnapshot(&buf, nil)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if restored.NumEdges() != gt.NumEdges() {
			t.Fatalf("edge count: %d vs %d", restored.NumEdges(), gt.NumEdges())
		}
		gt.ForEachEdge(func(src, dst uint64, w float32) bool {
			got, ok := restored.FindEdge(src, dst)
			if !ok || got != w {
				t.Fatalf("edge (%d,%d,%g) lost: (%g,%v)", src, dst, w, got, ok)
			}
			return true
		})
	})
}

// FuzzSnapshotReader checks that arbitrary bytes never panic either
// reader, and that a file ReadParallelSnapshot accepts ReadSnapshot loads
// to the same edge count (the converse need not hold: only the sharded
// reader refuses a source filed under the wrong shard).
// testdata/fuzz/FuzzSnapshotReader seeds it with both legacy fixtures and
// the section-table overflow.
func FuzzSnapshotReader(f *testing.F) {
	gt := MustNew(DefaultConfig())
	gt.InsertEdge(1, 2, 3)
	var buf bytes.Buffer
	_ = gt.WriteSnapshot(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The stored config sizes allocations by design: without SGH the
		// main region is indexed by raw source id (one mutated id near 2^32
		// is gigabytes), and storage chunks hold 1,024 edgeblocks of
		// PageWidth cells or 256 CAL blocks of CALBlockSize entries. Keep
		// to configs that stay small.
		if sf, err := openSnapshot(bytes.NewReader(data)); err == nil {
			if c := sf.cfg; !c.EnableSGH || c.PageWidth > 1<<10 || c.CALBlockSize > 1<<10 {
				return
			}
		}
		g, gerr := ReadSnapshot(bytes.NewReader(data), nil)
		p, perr := ReadParallelSnapshot(bytes.NewReader(data), nil)
		if perr != nil {
			return
		}
		if gerr != nil {
			t.Fatalf("ReadParallelSnapshot accepted what ReadSnapshot refused: %v", gerr)
		}
		if g.NumEdges() != p.NumEdges() {
			t.Fatalf("ReadSnapshot loaded %d edges, ReadParallelSnapshot %d", g.NumEdges(), p.NumEdges())
		}
	})
}
