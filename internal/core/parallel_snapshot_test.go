package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

// snapshotFixtureOps is the 5000-op stream both committed legacy fixtures
// snapshot: testdata/parallel_v1.gts is its 4-shard GTPS v1 dump and
// testdata/graph_gtk1.gts its lone-graph GTK1 dump, each written once by
// the last build that still carried that writer (GTK1: g := MustNew(
// DefaultConfig()); g.ApplyOps(snapshotFixtureOps()); g.WriteSnapshot).
func snapshotFixtureOps() []EdgeOp {
	var ops []EdgeOp
	s := uint64(99)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < 5000; i++ {
		src, dst := next()%700, next()%700
		if next()%6 == 0 {
			ops = append(ops, DeleteOp(src, dst))
		} else {
			ops = append(ops, InsertOp(src, dst, float32(next()%100)/10))
		}
	}
	return ops
}

func buildParallelForSnapshot(t *testing.T, shards int) (*Parallel, []EdgeOp) {
	t.Helper()
	p, err := NewParallel(DefaultConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	ops := snapshotFixtureOps()
	for _, op := range ops {
		if op.Del {
			p.DeleteEdge(op.Src, op.Dst)
		} else {
			p.InsertEdge(op.Src, op.Dst, op.Weight)
		}
	}
	return p, ops
}

func edgesOf(p *Parallel) map[[2]uint64]float32 {
	m := make(map[[2]uint64]float32)
	p.ForEachEdge(func(src, dst uint64, w float32) bool {
		m[[2]uint64{src, dst}] = w
		return true
	})
	return m
}

func TestParallelSnapshotRoundTrip(t *testing.T) {
	p, _ := buildParallelForSnapshot(t, 4)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadParallelSnapshot(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards() != 4 {
		t.Fatalf("restored %d shards, want 4", got.Shards())
	}
	want := edgesOf(p)
	have := edgesOf(got)
	if len(have) != len(want) {
		t.Fatalf("restored %d edges, want %d", len(have), len(want))
	}
	for k, w := range want {
		if have[k] != w {
			t.Fatalf("edge %v: got %g, want %g", k, have[k], w)
		}
	}
	// Per-shard content must match too (same seed → same partition).
	for i := 0; i < 4; i++ {
		if a, b := p.Shard(i).NumEdges(), got.Shard(i).NumEdges(); a != b {
			t.Fatalf("shard %d: %d edges restored, want %d", i, b, a)
		}
	}
}

func TestParallelSnapshotOverrideReshards(t *testing.T) {
	p, _ := buildParallelForSnapshot(t, 4)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	override := DefaultConfig()
	override.HashSeed = 0xdeadbeef // changes the partition function
	got, err := ReadParallelSnapshot(bytes.NewReader(buf.Bytes()), &override)
	if err != nil {
		t.Fatal(err)
	}
	want := edgesOf(p)
	have := edgesOf(got)
	if len(have) != len(want) {
		t.Fatalf("restored %d edges under override, want %d", len(have), len(want))
	}
	// Every edge must live on the shard the new partition assigns.
	ok := true
	got.ForEachEdge(func(src, dst uint64, w float32) bool {
		shard := got.ShardOf(src)
		if _, found := got.Shard(shard).FindEdge(src, dst); !found {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Fatal("an edge landed off its partition shard after override load")
	}
}

// overflowSources crafts the section-table overflow: shard 0's source
// count raised by 2^62 in its table entry and its section header alike,
// both CRCs recomputed, so 12·sources wraps back to the recorded length
// and only a bound on the count itself can refuse it. It returns the
// crafted file and the byte offset of the patched table entry.
func overflowSources(full []byte) ([]byte, uint64) {
	le := binary.LittleEndian
	c := append([]byte(nil), full...)
	foot := c[len(c)-v2FooterSize:]
	tableOff := le.Uint64(foot[0:])
	entry := c[tableOff:]
	off, length := le.Uint64(entry[0:]), le.Uint64(entry[8:])
	le.PutUint64(entry[24:], le.Uint64(entry[24:])+1<<62)
	le.PutUint64(c[off+8:], le.Uint64(c[off+8:])+1<<62)
	le.PutUint32(entry[32:], crc32.Checksum(c[off:off+length], snapCastagnoli))
	le.PutUint32(foot[8:], crc32.Checksum(c[tableOff:len(c)-v2FooterSize], snapCastagnoli))
	return c, tableOff
}

// TestParallelSnapshotCorruptInputs feeds damaged v2 files to both
// readers: they share one dispatch and one table parser, so each case must
// fail the same way through either.
func TestParallelSnapshotCorruptInputs(t *testing.T) {
	p, _ := buildParallelForSnapshot(t, 2)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	overflow, entry := overflowSources(full)
	sec0 := v2Layout(t, full)[0]

	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"empty", nil, "header truncated at byte offset 0"},
		{"short-header", full[:4], "header truncated at byte offset 4"},
		{"bad-magic", append([]byte{full[0] ^ 0xff}, full[1:]...), "not a GraphTinker snapshot"},
		// Cutting inside the config block truncates the config; cutting
		// past it loses the trailer.
		{"short-config", full[:10+8*3], "config truncated at byte offset 34"},
		{"short-trailer", full[:10+8*9+4], "section table and footer"},
		{"mid-edge", full[:len(full)-7], "footer magic"},
		// Shard 0's entry is the table's first, so the table and the entry
		// share a byte offset.
		{"sources-overflow", overflow, fmt.Sprintf("shard 0 section claims %d bytes, %d sources and %d edges, more than fit before the section table at byte offset %d (table entry at byte offset %d)",
			sec0.length, sec0.sources+1<<62, sec0.edges, entry, entry)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, perr := ReadParallelSnapshot(bytes.NewReader(tc.data), nil)
			_, gerr := ReadSnapshot(bytes.NewReader(tc.data), nil)
			for _, err := range []error{perr, gerr} {
				if err == nil {
					t.Fatal("corrupt input accepted")
				}
				if !strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("error %q does not mention %q", err, tc.wantSub)
				}
			}
		})
	}
}

// TestSingleSnapshotCorruptInputs truncates a lone graph's one-section v2
// file at each layer of the layout.
func TestSingleSnapshotCorruptInputs(t *testing.T) {
	g := MustNew(DefaultConfig())
	for i := uint64(0); i < 100; i++ {
		g.InsertEdge(i, i+1, 1)
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, tc := range []struct {
		name string
		cut  int
		want string
	}{
		{"short-header", 3, "header truncated at byte offset 3"},
		{"short-config", 10 + 16, "config truncated at byte offset 26"},
		// Inside the section header's edge count: too short for any table.
		{"short-count", v2HeaderSize + 2, "cannot hold the 1-shard section table and footer"},
		{"mid-edge", len(full) - 9, "footer magic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSnapshot(bytes.NewReader(full[:tc.cut]), nil)
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
