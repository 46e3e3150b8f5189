package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	gt := MustNew(DefaultConfig())
	ref := newRefGraph()
	r := &testRand{s: 77}
	for i := 0; i < 10000; i++ {
		src, dst := uint64(r.intn(200)), uint64(r.intn(2000))
		w := r.float32()
		if r.intn(4) == 0 {
			gt.DeleteEdge(src, dst)
			ref.delete(src, dst)
		} else {
			gt.InsertEdge(src, dst, w)
			ref.insert(src, dst, w)
		}
	}

	var buf bytes.Buffer
	if err := gt.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored, err := ReadSnapshot(&buf, nil)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if restored.Stats() != (Stats{}) {
		t.Fatalf("loading should not count as workload stats")
	}
	checkEquivalence(t, restored, ref)
	if restored.Config() != gt.Config() {
		t.Fatalf("config not preserved: %+v vs %+v", restored.Config(), gt.Config())
	}
}

// TestSnapshotCarriesCALSetting reopens a v2 file written by the paper's
// structure (blocks + CAL) both ways: with a blocks + CAL override it keeps
// the mirror, rebuilt with its invariants whole; with no override it loads
// on the default representation, whose stored CAL flag is dropped — through
// the lone-graph and the sharded reader alike.
func TestSnapshotCarriesCALSetting(t *testing.T) {
	cfg := blocksConfig()
	p, err := NewParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefGraph()
	r := &testRand{s: 41}
	for i := 0; i < 6000; i++ {
		src, dst := uint64(r.intn(150)), uint64(r.intn(900))
		if r.intn(4) == 0 {
			p.DeleteEdge(src, dst)
			ref.delete(src, dst)
		} else {
			p.InsertEdge(src, dst, 1)
			ref.insert(src, dst, 1)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		override *Config
		repr     Representation
		cal      bool
	}{
		{"blocks override", &cfg, ReprBlocks, true},
		{"no override", nil, ReprAdaptive, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lone, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), tc.override)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := ReadParallelSnapshot(bytes.NewReader(buf.Bytes()), tc.override)
			if err != nil {
				t.Fatal(err)
			}
			graphs := []*GraphTinker{lone}
			for i := 0; i < sharded.NumShards(); i++ {
				graphs = append(graphs, sharded.Shard(i))
			}
			for _, g := range graphs {
				if c := g.Config(); c.Repr != tc.repr || c.EnableCAL != tc.cal || (g.cal != nil) != tc.cal {
					t.Fatalf("reopened as %v with EnableCAL %v (mirror built: %v), want %v with %v", c.Repr, c.EnableCAL, g.cal != nil, tc.repr, tc.cal)
				}
				if v := g.CheckInvariants(); len(v) != 0 {
					t.Fatalf("invariants after reopen: %v", v)
				}
			}
			checkEquivalence(t, lone, ref)
			if got, want := lone.OccupancyReport().CALLiveEdges, map[bool]uint64{true: ref.numEdges()}[tc.cal]; got != want {
				t.Fatalf("mirror holds %d edges, want %d", got, want)
			}
		})
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	gt := MustNew(DefaultConfig())
	var buf bytes.Buffer
	if err := gt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumEdges() != 0 {
		t.Fatalf("empty snapshot restored %d edges", restored.NumEdges())
	}
}

func TestSnapshotConfigOverride(t *testing.T) {
	gt := MustNew(DefaultConfig())
	gt.InsertEdge(1, 2, 3)
	var buf bytes.Buffer
	if err := gt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	override := DefaultConfig()
	override.PageWidth = 16
	override.EnableCAL = false
	restored, err := ReadSnapshot(&buf, &override)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Config().PageWidth != 16 || restored.Config().EnableCAL {
		t.Fatalf("override not applied: %+v", restored.Config())
	}
	if w, ok := restored.FindEdge(1, 2); !ok || w != 3 {
		t.Fatalf("edge lost under override: (%g,%v)", w, ok)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	gt := MustNew(DefaultConfig())
	gt.InsertEdge(1, 2, 3)
	var buf bytes.Buffer
	if err := gt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	badVersion := append([]byte(nil), full...)
	badVersion[4] = 0xff // the v2 version field is bytes 4..5

	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"empty":       {nil, "header truncated at byte offset 0"},
		"bad magic":   {[]byte("NOTASNAPSHOTFILE____________________"), "not a GraphTinker snapshot"},
		"truncated":   {full[:len(full)-5], "footer magic"},
		"bad version": {badVersion, "unsupported snapshot version 255"},
	} {
		if _, err := ReadSnapshot(bytes.NewReader(tc.data), nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %q: got %v, want an error mentioning %q", name, err, tc.want)
		}
	}
}

func TestSnapshotInvalidOverrideRejected(t *testing.T) {
	gt := MustNew(DefaultConfig())
	var buf bytes.Buffer
	if err := gt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	bad := Config{}
	if _, err := ReadSnapshot(&buf, &bad); err == nil {
		t.Fatalf("invalid override accepted")
	}
}

func TestSnapshotPreservesWeightsExactly(t *testing.T) {
	gt := MustNew(DefaultConfig())
	weights := []float32{0, -1.5, 3.14159, 1e-30, 1e30}
	for i, w := range weights {
		gt.InsertEdge(uint64(i), 100, w)
	}
	var buf bytes.Buffer
	if err := gt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range weights {
		if got, ok := restored.FindEdge(uint64(i), 100); !ok || got != w {
			t.Fatalf("weight %g restored as (%g,%v)", w, got, ok)
		}
	}
}
