package core

// Property-based tests (testing/quick) over the core invariants.

import (
	"testing"
	"testing/quick"
)

// opScript is a generated sequence of graph mutations. testing/quick fills
// the raw fields; decode() turns them into bounded operations.
type opScript struct {
	Seed uint64
	Ops  []opWord
}

type opWord struct {
	Kind uint8
	Src  uint16
	Dst  uint16
	W    uint16
}

// applyScript runs a script against a GraphTinker and the reference graph,
// reporting false on the first divergence.
func applyScript(cfg Config, script opScript) bool {
	gt := MustNew(cfg)
	ref := newRefGraph()
	for _, op := range script.Ops {
		src := uint64(op.Src % 64)
		dst := uint64(op.Dst % 256)
		w := float32(op.W%97) + 0.5
		switch op.Kind % 3 {
		case 0, 1:
			if gt.InsertEdge(src, dst, w) != ref.insert(src, dst, w) {
				return false
			}
		case 2:
			if gt.DeleteEdge(src, dst) != ref.delete(src, dst) {
				return false
			}
		}
	}
	// Full-state comparison.
	if gt.NumEdges() != ref.numEdges() {
		return false
	}
	for src, m := range ref.adj {
		if gt.OutDegree(src) != uint32(len(m)) {
			return false
		}
		for dst, w := range m {
			gw, ok := gt.FindEdge(src, dst)
			if !ok || gw != w {
				return false
			}
		}
	}
	seen := 0
	okAll := true
	gt.ForEachEdge(func(src, dst uint64, w float32) bool {
		seen++
		rw, ok := ref.find(src, dst)
		if !ok || rw != w {
			okAll = false
			return false
		}
		return true
	})
	return okAll && uint64(seen) == ref.numEdges()
}

func quickCfg(t *testing.T) *quick.Config {
	t.Helper()
	n := 60
	if testing.Short() {
		n = 10
	}
	return &quick.Config{MaxCount: n}
}

func TestQuickEquivalenceDeleteOnly(t *testing.T) {
	cfg := blocksConfig() // ForEachEdge streams the mirror
	prop := func(script opScript) bool { return applyScript(cfg, script) }
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEquivalenceDeleteAndCompact(t *testing.T) {
	cfg := blocksConfig()
	cfg.DeleteMode = DeleteAndCompact
	prop := func(script opScript) bool { return applyScript(cfg, script) }
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEquivalenceNoSGHNoCAL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableSGH = false
	cfg.EnableCAL = false
	prop := func(script opScript) bool { return applyScript(cfg, script) }
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEquivalenceTinyGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageWidth, cfg.SubblockSize, cfg.WorkblockSize = 8, 4, 2
	prop := func(script opScript) bool { return applyScript(cfg, script) }
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSGHBijection(t *testing.T) {
	// assign() then raw() is the identity, and assign is idempotent.
	prop := func(ids []uint64) bool {
		s := newScatterGather(0)
		first := make(map[uint64]uint32)
		for _, raw := range ids {
			d := s.assign(raw)
			if prev, ok := first[raw]; ok {
				if prev != d {
					return false
				}
			} else {
				first[raw] = d
			}
			if s.raw(d) != raw {
				return false
			}
		}
		return s.count() == len(first)
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDegreeNeverNegative(t *testing.T) {
	// Interleaved double-deletes must never underflow degrees or the edge
	// count.
	prop := func(script opScript) bool {
		gt := MustNew(DefaultConfig())
		for _, op := range script.Ops {
			src := uint64(op.Src % 16)
			dst := uint64(op.Dst % 16)
			if op.Kind%2 == 0 {
				gt.InsertEdge(src, dst, 1)
			} else {
				gt.DeleteEdge(src, dst)
				gt.DeleteEdge(src, dst) // second delete must be a no-op
			}
			if gt.OutDegree(src) > 16 {
				return false
			}
		}
		var sum uint64
		gt.ForEachSource(func(src uint64, deg uint32) bool {
			sum += uint64(deg)
			return true
		})
		return sum == gt.NumEdges()
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCALCompactStaysDense(t *testing.T) {
	// Under delete-and-compact, after any op sequence the CAL fill is 100%:
	// every reachable slot is live.
	cfg := blocksConfig()
	cfg.DeleteMode = DeleteAndCompact
	prop := func(script opScript) bool {
		gt := MustNew(cfg)
		for _, op := range script.Ops {
			src := uint64(op.Src % 32)
			dst := uint64(op.Dst % 128)
			if op.Kind%3 == 2 {
				gt.DeleteEdge(src, dst)
			} else {
				gt.InsertEdge(src, dst, 1)
			}
		}
		o := gt.OccupancyReport()
		return o.CALSlots == o.CALLiveEdges
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParallelAgreesWithSingle(t *testing.T) {
	prop := func(script opScript, shardsRaw uint8) bool {
		shards := int(shardsRaw%7) + 1
		single := MustNew(DefaultConfig())
		par, err := NewParallel(DefaultConfig(), shards)
		if err != nil {
			return false
		}
		var inserts, deletes []Edge
		for _, op := range script.Ops {
			e := Edge{uint64(op.Src % 64), uint64(op.Dst % 64), 1}
			if op.Kind%4 == 3 {
				deletes = append(deletes, e)
			} else {
				inserts = append(inserts, e)
			}
		}
		single.InsertBatch(inserts)
		par.InsertBatch(inserts)
		single.DeleteBatch(deletes)
		par.DeleteBatch(deletes)
		if single.NumEdges() != par.NumEdges() {
			return false
		}
		for _, e := range inserts {
			sw, sok := single.FindEdge(e.Src, e.Dst)
			pw, pok := par.FindEdge(e.Src, e.Dst)
			if sok != pok || sw != pw {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}
