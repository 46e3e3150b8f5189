package core

// Differential recovery suite for the v2 parallel snapshot's bulk-load
// path: the bulk loader (each shard's replica built directly, containers
// pre-sized and format-chosen from section degrees) must be edge-for-edge
// identical to the op-by-op sequential oracle under every representation,
// invariant-clean in every live replica, and every corruption of the section
// table or a section body must be rejected with an exact byte-offset
// error before any partial state escapes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphtinker/internal/faultinject"
)

// buildChurnParallel fills a sharded store with a skewed insert/delete
// stream plus a handful of hub sources whose degree crosses every
// migration threshold — so a snapshot of it carries slice-, blocks- and
// cuckoo-sized runs for the bulk loader's format pre-choice to get right.
func buildChurnParallel(t *testing.T, cfg Config, shards int) *Parallel {
	t.Helper()
	p, err := NewParallel(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(7)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < 4000; i++ {
		src, dst := next()%500, next()%500
		if next()%5 == 0 {
			p.DeleteEdge(src, dst)
		} else {
			p.InsertEdge(src, dst, float32(next()%100)/10)
		}
	}
	// Hubs: degrees 3, 12 and 60 straddle tinyThresholds' promote points
	// (slice→blocks at 8, blocks→cuckoo at 24) and, at 60, the default
	// CuckooPromoteDegree-sized pre-allocation path.
	for hub, deg := range map[uint64]int{1000: 3, 1001: 12, 1002: 60} {
		for d := 0; d < deg; d++ {
			p.InsertEdge(hub, 2000+uint64(d), float32(d))
		}
	}
	return p
}

func TestBulkLoadMatchesSequentialOracle(t *testing.T) {
	for _, tc := range reprUnderTest {
		t.Run(tc.name, func(t *testing.T) {
			p := buildChurnParallel(t, tc.cfg(), 4)
			var buf bytes.Buffer
			if err := p.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			bulk, err := ReadParallelSnapshot(bytes.NewReader(buf.Bytes()), nil)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := ReadParallelSnapshotSequential(bytes.NewReader(buf.Bytes()), nil)
			if err != nil {
				t.Fatal(err)
			}

			want, have := edgesOf(oracle), edgesOf(bulk)
			if len(have) != len(want) {
				t.Fatalf("bulk load restored %d edges, oracle %d", len(have), len(want))
			}
			for k, w := range want {
				if have[k] != w {
					t.Fatalf("edge %v: bulk %g, oracle %g", k, have[k], w)
				}
			}
			for i := 0; i < bulk.Shards(); i++ {
				if a, b := bulk.Shard(i).NumEdges(), oracle.Shard(i).NumEdges(); a != b {
					t.Fatalf("shard %d: bulk %d edges, oracle %d", i, a, b)
				}
				// The bulk loader built the shard's replica directly — one
				// of them, leaving the shard in SINGLE mode; every live
				// replica must pass the invariant sweep.
				live := liveReplicas(&bulk.sc[i])
				if len(live) != 1 || bulk.ShardStats()[i].Replicas != 1 {
					t.Fatalf("shard %d holds %d replicas after bulk load (ShardStats says %d), want 1",
						i, len(live), bulk.ShardStats()[i].Replicas)
				}
				checkReplicas(t, bulk)
			}
			// The loaded store must keep working as a live store: writable
			// in place on the replica the loader built...
			bulk.InsertEdge(1000, 9999, 1)
			if _, ok := bulk.FindEdge(1000, 9999); !ok {
				t.Fatal("store not writable after bulk load")
			}
			// ...and promotable: a write that finds the bulk-built replica
			// pinned clones it, and the clone holds the same edges.
			hub := bulk.ShardOf(1000)
			writeUnderPins(t, bulk, []int{hub}, func() { bulk.InsertEdge(1000, 9998, 1) })
			if st := bulk.ShardStats()[hub]; st.Replicas != 2 || st.ShadowBuilds != 1 {
				t.Fatalf("shard %d after a pinned write: %d replicas, %d builds, want 2 and 1", hub, st.Replicas, st.ShadowBuilds)
			}
			checkReplicas(t, bulk)
			bulk.InsertEdge(1000, 9997, 1) // flips readers onto the other replica
			for _, dst := range []uint64{9997, 9998, 9999} {
				if _, ok := bulk.FindEdge(1000, dst); !ok {
					t.Fatalf("edge (1000,%d) missing after promotion", dst)
				}
			}
			want[[2]uint64{1000, 9997}], want[[2]uint64{1000, 9998}], want[[2]uint64{1000, 9999}] = 1, 1, 1
			if have := edgesOf(bulk); len(have) != len(want) {
				t.Fatalf("promoted store holds %d edges, want %d", len(have), len(want))
			}
		})
	}
}

// v2Layout parses the trailer of a v2 snapshot for corruption tests.
func v2Layout(t *testing.T, raw []byte) []v2Section {
	t.Helper()
	le := binary.LittleEndian
	foot := raw[len(raw)-v2FooterSize:]
	tableOff := int(le.Uint64(foot[0:]))
	shards := int(le.Uint32(raw[6:]))
	secs := make([]v2Section, shards)
	for i := range secs {
		e := raw[tableOff+i*v2TableEntrySize:]
		secs[i] = v2Section{
			off:     le.Uint64(e[0:]),
			length:  le.Uint64(e[8:]),
			edges:   le.Uint64(e[16:]),
			sources: le.Uint64(e[24:]),
			crc:     le.Uint32(e[32:]),
		}
	}
	return secs
}

func TestBulkLoadCorruptSectionCRC(t *testing.T) {
	p, _ := buildParallelForSnapshot(t, 3)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	secs := v2Layout(t, full)

	// Flip one byte inside each shard's section in turn; the reader must
	// name the shard and the exact byte span the bad section occupies.
	for shard, sec := range secs {
		t.Run(fmt.Sprintf("shard-%d", shard), func(t *testing.T) {
			c := append([]byte(nil), full...)
			c[sec.off+sec.length/2] ^= 0x40
			_, err := ReadParallelSnapshot(bytes.NewReader(c), nil)
			if err == nil {
				t.Fatal("corrupt section accepted")
			}
			want := fmt.Sprintf("shard %d section checksum mismatch (section spans byte offsets %d..%d)",
				shard, sec.off, sec.end())
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not carry the exact span %q", err, want)
			}
		})
	}

	// Corrupting the table itself must be caught by the table CRC before
	// any section is trusted.
	t.Run("table", func(t *testing.T) {
		c := append([]byte(nil), full...)
		c[len(c)-v2FooterSize-4] ^= 0x01
		_, err := ReadParallelSnapshot(bytes.NewReader(c), nil)
		if err == nil || !strings.Contains(err.Error(), "section table checksum mismatch") {
			t.Fatalf("corrupt table: got %v", err)
		}
	})
}

func TestParallelSnapshotV1Compat(t *testing.T) {
	// testdata/parallel_v1.gts is the v1 dump of exactly this store,
	// written once by the last build that still carried a v1 writer.
	p, _ := buildParallelForSnapshot(t, 4)
	v1, err := os.ReadFile(filepath.Join("testdata", "parallel_v1.gts"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadParallelSnapshot(bytes.NewReader(v1), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, have := edgesOf(p), edgesOf(got)
	if len(have) != len(want) {
		t.Fatalf("v1 snapshot restored %d edges, want %d", len(have), len(want))
	}
	for k, w := range want {
		if have[k] != w {
			t.Fatalf("edge %v: got %g, want %g", k, have[k], w)
		}
	}
}

// streamOnly strips ReaderAt/Seeker so the reader takes the slurp path —
// the shape a network stream or pipe presents.
type streamOnly struct{ r io.Reader }

func (s streamOnly) Read(p []byte) (int, error) { return s.r.Read(p) }

func TestParallelSnapshotStreamReader(t *testing.T) {
	p, _ := buildParallelForSnapshot(t, 4)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadParallelSnapshot(streamOnly{&buf}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, have := edgesOf(p), edgesOf(got); len(have) != len(want) {
		t.Fatalf("stream read restored %d edges, want %d", len(have), len(want))
	}
}

func TestBulkLoadFailpoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Reset()
	p, _ := buildParallelForSnapshot(t, 4)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Set("recovery/bulk-load", "error*1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadParallelSnapshot(bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("bulk load succeeded under an armed failpoint")
	} else if !strings.Contains(err.Error(), "bulk load") {
		t.Fatalf("failpoint error %q does not name the bulk load", err)
	}
	faultinject.Reset()
	got, err := ReadParallelSnapshot(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, have := edgesOf(p), edgesOf(got); len(have) != len(want) {
		t.Fatalf("post-failpoint read restored %d edges, want %d", len(have), len(want))
	}
}
