package core

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// highWordDsts share their low 32 bits in pairs and differ only above
// them, so a container that compared, hashed or returned only the low word
// of a destination would merge, misplace or misreport them.
var highWordDsts = []uint64{1, 1 << 32, 1<<32 + 1, 1<<40 | 1, math.MaxUint64}

// highWordAbsent are never inserted; each shares its low word with a
// stored destination.
var highWordAbsent = []uint64{2<<32 | 1, 1 << 33, math.MaxUint32}

// goldenOps is formatOps plus one slice-sized and one cuckoo-sized vertex
// (at tinyThresholds) whose destinations include every high-word id:
// testdata/graph_v2.gts is the lone writer's dump of exactly this stream.
func goldenOps() []EdgeOp {
	ops := formatOps()
	for i, dst := range highWordDsts {
		ops = append(ops, InsertOp(3000, dst, float32(i)+0.5))
		ops = append(ops, InsertOp(3001, dst, float32(i)+1.5))
	}
	for d := uint64(0); d < 10; d++ {
		ops = append(ops, InsertOp(3001, 4000+d, float32(d)))
	}
	return ops
}

// TestHighWordDestinations runs the high-word ids through each way a
// default-store entry is written and read back: slice insert, find and
// delete; promotion to the cuckoo table; demotion back to the sorted slice;
// the engine's part walk; and a snapshot round trip.
func TestHighWordDestinations(t *testing.T) {
	const src = 9
	gt := MustNew(tinyThresholds(DefaultConfig()))
	want := map[uint64]float32{}
	check := func(stage string, g *GraphTinker, kind reprKind) {
		t.Helper()
		if d, _ := g.denseLookup(src); g.cont[d].kind != kind {
			t.Fatalf("%s: representation %v, want %v", stage, g.cont[d].kind, kind)
		}
		if got := g.OutDegree(src); got != uint32(len(want)) {
			t.Fatalf("%s: degree %d, want %d", stage, got, len(want))
		}
		for dst, w := range want {
			if got, ok := g.FindEdge(src, dst); !ok || got != w {
				t.Fatalf("%s: FindEdge(%#x) = (%g,%v), want %g", stage, dst, got, ok, w)
			}
		}
		for _, dst := range highWordAbsent {
			if _, ok := g.FindEdge(src, dst); ok {
				t.Fatalf("%s: FindEdge(%#x) found a never-inserted edge", stage, dst)
			}
		}
		var walked []uint64
		g.ForEachActivePartEdge(0, 1, nil, func(s, dst uint64, w float32) bool {
			if s != src || want[dst] != w {
				t.Fatalf("%s: part walk produced (%d,%#x,%g)", stage, s, dst, w)
			}
			walked = append(walked, dst)
			return true
		})
		if len(walked) != len(want) {
			t.Fatalf("%s: part walk visited %d edges, want %d", stage, len(walked), len(want))
		}
		if kind == reprSlice && !slices.IsSorted(walked) {
			t.Fatalf("%s: slice walk out of order: %#x", stage, walked)
		}
		if v := g.CheckInvariants(); len(v) != 0 {
			t.Fatalf("%s: invariants: %v", stage, v)
		}
	}

	for i, dst := range highWordDsts {
		if !gt.InsertEdge(src, dst, float32(i)+0.5) {
			t.Fatalf("InsertEdge(%#x) reported an update", dst)
		}
		want[dst] = float32(i) + 0.5
	}
	check("slice", gt, reprSlice)
	for _, dst := range []uint64{1 << 32, math.MaxUint64} {
		if !gt.DeleteEdge(src, dst) {
			t.Fatalf("DeleteEdge(%#x) found nothing", dst)
		}
		delete(want, dst)
	}
	check("slice after delete", gt, reprSlice)
	for i, dst := range []uint64{1 << 32, math.MaxUint64} {
		gt.InsertEdge(src, dst, float32(i)+7)
		want[dst] = float32(i) + 7
	}

	// Four low fillers take the degree to 9, past the promote point of 8.
	for d := uint64(2); d < 6; d++ {
		gt.InsertEdge(src, d, float32(d))
		want[d] = float32(d)
	}
	check("cuckoo", gt, reprCuckoo)
	for _, dst := range []uint64{1 << 32, 1<<32 + 1} {
		gt.DeleteEdge(src, dst)
		delete(want, dst)
	}
	check("cuckoo after delete", gt, reprCuckoo)

	// Down to the demote point of 4: the slice comes back in dst order.
	for d := uint64(2); d < 5; d++ {
		gt.DeleteEdge(src, d)
		delete(want, d)
	}
	check("demoted slice", gt, reprSlice)

	var buf bytes.Buffer
	if err := gt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("snapshot round trip", back, reprSlice)
}

// TestSnapshotGoldenV2 pins the writer's bytes: a lone graph fed goldenOps
// writes testdata/graph_v2.gts byte for byte. The file was written by this
// same code path before the slice and cuckoo entry shrank to 12 B, so the
// in-memory record and the file's (dst u64, weightBits u32) runs stay
// independent. Regenerate it only for a deliberate format change.
func TestSnapshotGoldenV2(t *testing.T) {
	want := readFixture(t, "graph_v2.gts")
	got := loneSnapshot(t, tinyThresholds(DefaultConfig()), goldenOps())
	if !bytes.Equal(got, want) {
		t.Fatalf("writer produced %d bytes, fixture has %d; first difference at byte offset %d", len(got), len(want), firstDiff(got, want))
	}
}
