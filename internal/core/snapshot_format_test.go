package core

// The one-format property. Every writer — a lone GraphTinker, a 1-shard
// and a 4-shard Parallel — and both committed legacy fixtures load through
// both readers under every representation, exactly to the oracle and
// invariant-clean; and a lone graph writes the same bytes as a 1-shard
// Parallel fed the same ops.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphtinker/internal/testutil"
)

// formatOps is the fixture stream plus hubs whose degrees (3, 12, 60)
// straddle tinyThresholds' promote point, so every writer's sections carry
// slice- and cuckoo-sized runs.
func formatOps() []EdgeOp {
	ops := snapshotFixtureOps()
	for i, deg := range []int{3, 12, 60} {
		for d := 0; d < deg; d++ {
			ops = append(ops, InsertOp(1000+uint64(i), 2000+uint64(d), float32(d)))
		}
	}
	return ops
}

func oracleOf(ops []EdgeOp) *testutil.RefGraph {
	ref := testutil.NewRefGraph()
	for _, op := range ops {
		if op.Del {
			ref.Delete(op.Src, op.Dst)
		} else {
			ref.Insert(op.Src, op.Dst, op.Weight)
		}
	}
	return ref
}

func loneSnapshot(t *testing.T, cfg Config, ops []EdgeOp) []byte {
	t.Helper()
	g := MustNew(cfg)
	g.ApplyOps(ops)
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func parallelSnapshot(t *testing.T, cfg Config, shards int, ops []EdgeOp) []byte {
	t.Helper()
	p, err := NewParallel(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ApplyOps(ops)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotOneFormat(t *testing.T) {
	ops := formatOps()
	ref, legacyRef := oracleOf(ops), oracleOf(snapshotFixtureOps())
	gtk1, v1 := readFixture(t, "graph_gtk1.gts"), readFixture(t, "parallel_v1.gts")
	for _, repr := range reprUnderTest {
		cfg := repr.cfg()
		for _, w := range []struct {
			name   string
			data   []byte
			shards int // the width ReadParallelSnapshot must restore
			ref    *testutil.RefGraph
		}{
			{"lone", loneSnapshot(t, cfg, ops), 1, ref},
			{"parallel-1", parallelSnapshot(t, cfg, 1, ops), 1, ref},
			{"parallel-4", parallelSnapshot(t, cfg, 4, ops), 4, ref},
			{"gtk1-fixture", gtk1, 1, legacyRef},
			{"v1-fixture", v1, 4, legacyRef},
		} {
			// The override carries the representation, which the format does
			// not store; it keeps the stored HashSeed, so v2 bulk-loads.
			t.Run(repr.name+"/"+w.name+"/ReadSnapshot", func(t *testing.T) {
				g, err := ReadSnapshot(bytes.NewReader(w.data), &cfg)
				if err != nil {
					t.Fatal(err)
				}
				testutil.CheckAgainstRef(t, g, w.ref)
				if v := g.CheckInvariants(); len(v) != 0 {
					t.Fatalf("invariants: %v", v)
				}
			})
			t.Run(repr.name+"/"+w.name+"/ReadParallelSnapshot", func(t *testing.T) {
				p, err := ReadParallelSnapshot(bytes.NewReader(w.data), &cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				if p.Shards() != w.shards {
					t.Fatalf("restored %d shards, want %d", p.Shards(), w.shards)
				}
				testutil.CheckAgainstRef(t, p, w.ref)
				checkReplicas(t, p)
			})
		}
	}
}

func TestSnapshotLoneMatchesOneShardParallel(t *testing.T) {
	ops := formatOps()
	for _, repr := range reprUnderTest {
		t.Run(repr.name, func(t *testing.T) {
			lone, par := loneSnapshot(t, repr.cfg(), ops), parallelSnapshot(t, repr.cfg(), 1, ops)
			if !bytes.Equal(lone, par) {
				i := 0
				for i < len(lone) && i < len(par) && lone[i] == par[i] {
					i++
				}
				t.Fatalf("lone graph wrote %d bytes, 1-shard Parallel %d; first difference at byte offset %d", len(lone), len(par), i)
			}
		})
	}
}
