package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFormatOf(t *testing.T) {
	if formatOf("", "x.snap") != "snap" || formatOf("", "x.txt") != "text" {
		t.Fatalf("extension inference wrong")
	}
	if formatOf("text", "x.snap") != "text" {
		t.Fatalf("override ignored")
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txt, []byte("1 2 2.5\n2 3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := load(txt, "text", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("loaded %d edges", g.NumEdges())
	}

	snap := filepath.Join(dir, "g.snap")
	if err := save(g, snap, "snap"); err != nil {
		t.Fatal(err)
	}
	g2, err := load(snap, "snap", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g2.FindEdge(1, 2); !ok || w != 2.5 {
		t.Fatalf("snapshot round trip: (%g,%v)", w, ok)
	}

	txt2 := filepath.Join(dir, "g2.txt")
	if err := save(g2, txt2, "text"); err != nil {
		t.Fatal(err)
	}
	g3, err := load(txt2, "text", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != 2 {
		t.Fatalf("text round trip lost edges")
	}
}

func TestLoadSymmetrizeAndBase(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "mm.txt")
	if err := os.WriteFile(txt, []byte("1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := load(txt, "text", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("symmetrized edges = %d", g.NumEdges())
	}
	if _, ok := g.FindEdge(1, 0); !ok {
		t.Fatalf("base shift or mirror missing")
	}
}

func TestLoadSaveErrors(t *testing.T) {
	if _, err := load("/nonexistent/file", "text", 0, false); err == nil {
		t.Fatalf("missing file accepted")
	}
	if _, err := load("/dev/null", "bogus", 0, false); err == nil {
		t.Fatalf("bogus format accepted")
	}
	g, _ := load("/dev/null", "text", 0, false)
	if err := save(g, "/nonexistent/dir/out", "text"); err == nil {
		t.Fatalf("unwritable path accepted")
	}
	if err := save(g, filepath.Join(t.TempDir(), "x"), "bogus"); err == nil {
		t.Fatalf("bogus output format accepted")
	}
}

// TestUpgradeLegacySnapshots is the one-shot upgrade: a snapshot-to-
// snapshot run reads either legacy fixture and writes the current format.
func TestUpgradeLegacySnapshots(t *testing.T) {
	for _, fixture := range []string{"graph_gtk1.gts", "parallel_v1.gts"} {
		t.Run(fixture, func(t *testing.T) {
			old, err := load(filepath.Join("..", "..", "internal", "core", "testdata", fixture), "snap", 0, false)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "new.snap")
			if err := save(old, out, "snap"); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw[:4]) != "SPTG" || raw[4] != 2 { // "GTPS" little-endian, version 2
				t.Fatalf("upgraded file starts %q v%d, want GTPS v2", raw[:4], raw[4])
			}
			upgraded, err := load(out, "snap", 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if upgraded.NumEdges() != old.NumEdges() || old.NumEdges() == 0 {
				t.Fatalf("upgrade kept %d of %d edges", upgraded.NumEdges(), old.NumEdges())
			}
		})
	}
}
