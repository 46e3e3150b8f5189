package core

// Representation-conformance harness. Every edge-container format must
// behave identically: this file drives each through the EdgeContainer
// interface against a map oracle, through the full graph surface against
// the internal/testutil differential oracle, pins the exact adaptive
// promote/demote boundaries, and cross-checks all configurations against
// each other under fuzzing. The slice and cuckoo tiers are reached through
// adaptive threshold presets that keep a vertex in one tier (sliceOnly) or
// move it to the other almost at once (cuckooHeavy).
//
// The rest of the package participates through testConfig: suites built on
// it (seqlock, concurrent-read, race) honour the GT_REPR environment
// variable, which is how the CI conformance matrix re-runs the torn-read
// and race tests with each representation active.

import (
	"fmt"
	"math"
	"os"
	"testing"
)

// testConfig is DefaultConfig with the representation overridden by the
// GT_REPR environment variable (adaptive|blocks). The CI conformance matrix
// sets GT_REPR per job so the seqlock and race suites exercise both;
// locally it defaults to adaptive. GT_REPR=blocks runs the figures'
// configuration, the block tree with its CAL mirror, so the concurrency
// suites cover the mirror too. The adaptive representation runs at
// tinyThresholds: at the default promote point test-sized graphs would
// never leave the slice, and the suites would never see a migration inside
// an in-place apply, a shadow apply or a clone.
func testConfig(tb testing.TB) Config {
	cfg := DefaultConfig()
	if s := os.Getenv("GT_REPR"); s != "" {
		r, err := ParseRepresentation(s)
		if err != nil {
			tb.Fatalf("GT_REPR: %v", err)
		}
		cfg.Repr = r
	}
	if cfg.Repr == ReprBlocks {
		cfg.EnableCAL = true
	} else {
		cfg = tinyThresholds(cfg)
	}
	return cfg
}

// tinyThresholds shrinks the adaptive migration boundaries so test-sized
// degree swings cross both of them.
func tinyThresholds(cfg Config) Config {
	cfg.CuckooPromoteDegree = 8
	cfg.CuckooDemoteDegree = 4
	return cfg
}

// sliceOnly keeps every adaptive vertex in the sorted slice: the promote
// point is out of reach.
func sliceOnly(cfg Config) Config {
	cfg.CuckooPromoteDegree = math.MaxInt
	return cfg
}

// cuckooHeavy moves an adaptive vertex into the cuckoo table at degree 3
// and back only at degree 1, so nearly every operation runs on the table.
// It is the lowest valid pair: a zero demote point means the default.
func cuckooHeavy(cfg Config) Config {
	cfg.CuckooPromoteDegree = 2
	cfg.CuckooDemoteDegree = 1
	return cfg
}

// reprUnderTest enumerates the conformance table: the block tree
// (ReprBlocks, under which the adaptor never migrates), the slice and
// cuckoo tiers through their presets, and the adaptive adaptor at forced
// tiny thresholds.
var reprUnderTest = []struct {
	name string
	cfg  func() Config
}{
	{"slice", func() Config { return sliceOnly(DefaultConfig()) }},
	{"blocks", func() Config { c := DefaultConfig(); c.Repr = ReprBlocks; return c }},
	{"cuckoo", func() Config { return cuckooHeavy(DefaultConfig()) }},
	{"adaptive", func() Config { return tinyThresholds(DefaultConfig()) }},
}

// newContainerUnderTest materializes one vertex's container bound to a
// fresh host and returns it as the interface the conformance suite speaks.
func newContainerUnderTest(gt *GraphTinker, src uint64) EdgeContainer {
	d := gt.denseOf(src)
	gt.ensureDense(d)
	ac := &gt.cont[d]
	ac.init(gt, d)
	return ac
}

// TestEdgeContainerConformance drives every representation directly through
// the EdgeContainer interface against a map oracle: insert/delete/find
// closure, duplicate suppression, degree consistency, iteration
// completeness and snapshot correctness, across both delete modes and two
// block geometries.
func TestEdgeContainerConformance(t *testing.T) {
	const src = 7
	for _, repr := range reprUnderTest {
		for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
			for _, pw := range []int{16, 64} {
				name := fmt.Sprintf("%s/%s/pw%d", repr.name, mode, pw)
				t.Run(name, func(t *testing.T) {
					cfg := repr.cfg()
					cfg.DeleteMode = mode
					cfg.PageWidth = pw
					gt := MustNew(cfg)
					ec := newContainerUnderTest(gt, src)
					oracle := map[uint64]float32{}
					r := &testRand{s: uint64(pw)*1000 + uint64(len(repr.name))}

					check := func(step int) {
						t.Helper()
						if got, want := ec.Degree(), uint32(len(oracle)); got != want {
							t.Fatalf("step %d: Degree = %d, oracle has %d", step, got, want)
						}
						for dst, w := range oracle {
							got, probe, ok := ec.Find(dst)
							if !ok || got != w {
								t.Fatalf("step %d: Find(%d) = (%g,%v), want %g", step, dst, got, ok, w)
							}
							if probe < 1 {
								t.Fatalf("step %d: Find(%d) reported probe %d", step, dst, probe)
							}
						}
						seen := map[uint64]float32{}
						if !ec.Iterate(func(dst uint64, w float32) bool {
							if _, dup := seen[dst]; dup {
								t.Fatalf("step %d: Iterate visited %d twice", step, dst)
							}
							seen[dst] = w
							return true
						}) {
							t.Fatalf("step %d: full Iterate reported an early stop", step)
						}
						if len(seen) != len(oracle) {
							t.Fatalf("step %d: Iterate visited %d edges, oracle has %d", step, len(seen), len(oracle))
						}
						for dst, w := range seen {
							if ow, ok := oracle[dst]; !ok || ow != w {
								t.Fatalf("step %d: Iterate produced (%d,%g), oracle has (%g,%v)", step, dst, w, ow, ok)
							}
						}
						snap := ec.Snapshot()
						if len(snap) != len(oracle) {
							t.Fatalf("step %d: Snapshot has %d edges, oracle has %d", step, len(snap), len(oracle))
						}
						for _, e := range snap {
							if e.Src != src {
								t.Fatalf("step %d: Snapshot edge carries src %d, want %d", step, e.Src, src)
							}
							if w, ok := oracle[e.Dst]; !ok || w != e.Weight {
								t.Fatalf("step %d: Snapshot edge (%d,%g) not in oracle", step, e.Dst, e.Weight)
							}
						}
					}

					const ops = 6000
					for i := 0; i < ops; i++ {
						dst := uint64(r.intn(48))
						switch r.intn(3) {
						case 0, 1:
							w := r.float32() + 1
							isNew, probe := ec.Insert(dst, w)
							_, had := oracle[dst]
							if isNew == had {
								t.Fatalf("op %d: Insert(%d) isNew=%v but oracle had=%v (duplicate suppression)", i, dst, isNew, had)
							}
							if had && probe < 1 {
								// An update must have inspected the entry it patched.
								t.Fatalf("op %d: Insert(%d) patched an edge with probe %d", i, dst, probe)
							}
							oracle[dst] = w
						case 2:
							removed, _ := ec.Delete(dst)
							_, had := oracle[dst]
							if removed != had {
								t.Fatalf("op %d: Delete(%d) removed=%v but oracle had=%v", i, dst, removed, had)
							}
							delete(oracle, dst)
						}
						if i%389 == 0 {
							check(i)
						}
					}
					check(ops)

					// Absent destinations stay absent.
					for dst := uint64(1000); dst < 1016; dst++ {
						if _, _, ok := ec.Find(dst); ok {
							t.Fatalf("Find(%d) found a never-inserted edge", dst)
						}
						if removed, _ := ec.Delete(dst); removed {
							t.Fatalf("Delete(%d) removed a never-inserted edge", dst)
						}
					}
					// Early termination short-circuits the walk.
					if len(oracle) > 1 {
						visits := 0
						if ec.Iterate(func(dst uint64, w float32) bool { visits++; return false }) {
							t.Fatalf("stopped Iterate reported full completion")
						}
						if visits != 1 {
							t.Fatalf("stopped Iterate visited %d edges, want 1", visits)
						}
					}
				})
			}
		}
	}
}

// TestRepresentationDifferential runs every representation's full graph
// surface (raw ids, stats, invariants, the edge stream with the CAL mirror
// off and on) against the internal/testutil reference oracle under a mixed
// insert/delete stream.
func TestRepresentationDifferential(t *testing.T) {
	for _, repr := range reprUnderTest {
		for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
			t.Run(repr.name+"/"+mode.String(), func(t *testing.T) {
				for _, cal := range []bool{false, true} {
					cfg := repr.cfg()
					if cal && cfg.Repr != ReprBlocks {
						continue // the CAL mirrors the block tree only
					}
					cfg.DeleteMode, cfg.EnableCAL = mode, cal
					gt := MustNew(cfg)
					ref := newRefGraph()
					r := &testRand{s: 0xC0FFEE}
					for i := 0; i < 25000; i++ {
						src, dst := uint64(r.intn(60)), uint64(r.intn(120))
						if r.intn(3) == 2 {
							if gt.DeleteEdge(src, dst) != ref.delete(src, dst) {
								t.Fatalf("delete diverged at op %d", i)
							}
						} else {
							w := r.float32()
							if gt.InsertEdge(src, dst, w) != ref.insert(src, dst, w) {
								t.Fatalf("insert diverged at op %d", i)
							}
						}
						if i%5000 == 4999 {
							checkEquivalence(t, gt, ref)
							if v := gt.CheckInvariants(); len(v) != 0 {
								t.Fatalf("invariants at op %d: %v", i, v)
							}
						}
					}
					checkEquivalence(t, gt, ref)
					if v := gt.CheckInvariants(); len(v) != 0 {
						t.Fatalf("final invariants: %v", v)
					}
					// Probe accounting must cover the whole structure under any
					// representation: histogram totals equal the live edge count.
					h := gt.AnalyzeProbes()
					var total uint64
					for _, n := range h.ByProbe {
						total += n
					}
					if total != gt.NumEdges() {
						t.Fatalf("probe histogram covers %d edges, graph holds %d", total, gt.NumEdges())
					}
				}
			})
		}
	}
}

// TestAdaptiveMigrationBoundaries pins the exact promote and demote points:
// with promote 4 and demote 2 a vertex must move slice→cuckoo at exactly
// degree 5 and cuckoo→slice at exactly degree 2 — one edge earlier or later
// is a hysteresis bug — and every migration is counted exactly once.
func TestAdaptiveMigrationBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CuckooPromoteDegree = 4
	cfg.CuckooDemoteDegree = 2
	for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
		t.Run(mode.String(), func(t *testing.T) {
			gt := MustNew(cfg.withDeleteMode(mode))
			const src = 42
			kindOf := func() reprKind {
				d, ok := gt.denseLookup(src)
				if !ok {
					t.Fatalf("vertex %d has no dense id", src)
				}
				return gt.cont[d].kind
			}
			verify := func(stage string, want reprKind, degree int, promotions, demotions uint64) {
				t.Helper()
				if got := kindOf(); got != want {
					t.Fatalf("%s: representation = %v, want %v", stage, got, want)
				}
				if got := gt.OutDegree(src); got != uint32(degree) {
					t.Fatalf("%s: degree = %d, want %d", stage, got, degree)
				}
				for i := 1; i <= degree; i++ {
					if w, ok := gt.FindEdge(src, uint64(i)); !ok || w != float32(i) {
						t.Fatalf("%s: edge %d = (%g,%v) after migration", stage, i, w, ok)
					}
				}
				if s := gt.Stats(); s.Promotions != promotions || s.Demotions != demotions {
					t.Fatalf("%s: promotions=%d demotions=%d, want %d/%d", stage, s.Promotions, s.Demotions, promotions, demotions)
				}
				if v := gt.CheckInvariants(); len(v) != 0 {
					t.Fatalf("%s: invariants: %v", stage, v)
				}
			}
			insertUpTo := func(lo, hi int) {
				for i := lo; i <= hi; i++ {
					gt.InsertEdge(src, uint64(i), float32(i))
				}
			}
			deleteDownTo := func(hi, lo int) {
				for i := hi; i >= lo; i-- {
					gt.DeleteEdge(src, uint64(i))
				}
			}

			for cycle := uint64(0); cycle < 2; cycle++ {
				// Up: the slice holds through the promote threshold itself;
				// weight updates and absent deletes at the boundary move
				// nothing...
				insertUpTo(int(gt.OutDegree(src))+1, 4)
				gt.InsertEdge(src, 4, 4)
				gt.DeleteEdge(src, 99)
				verify("degree 4", reprSlice, 4, cycle, cycle)
				// ...and the next new edge is the exact promote point.
				insertUpTo(5, 5)
				verify("degree 5 (slice→cuckoo)", reprCuckoo, 5, cycle+1, cycle)
				insertUpTo(6, 8)
				verify("degree 8", reprCuckoo, 8, cycle+1, cycle)

				// Down: the table holds strictly above the demote
				// threshold...
				deleteDownTo(8, 4)
				gt.InsertEdge(src, 3, 3)
				gt.DeleteEdge(src, 99)
				verify("degree 3", reprCuckoo, 3, cycle+1, cycle)
				// ...and demotes exactly on reaching it.
				deleteDownTo(3, 3)
				verify("degree 2 (cuckoo→slice)", reprSlice, 2, cycle+1, cycle+1)
				// The second cycle runs on the buffers the first retained.
			}
		})
	}
}

// withDeleteMode is a test convenience for deriving mode variants.
func (c Config) withDeleteMode(m DeleteMode) Config {
	c.DeleteMode = m
	return c
}

// FuzzEdgeContainer cross-checks all three container formats (the block
// tree and the two tier presets) plus the adaptive adaptor against each
// other and the reference oracle on one fuzzed op stream, under both
// delete modes, with invariants checked at the end.
func FuzzEdgeContainer(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 9, 9, 0, 9, 9, 2, 9, 9})
	f.Add([]byte{})
	for i := 0; i < 2; i++ {
		var long []byte
		for b := 0; b < 120; b++ {
			long = append(long, byte(b*7+i), byte(b%5), byte(b%96))
		}
		f.Add(long)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []DeleteMode{DeleteOnly, DeleteAndCompact} {
			gts := make([]*GraphTinker, len(reprUnderTest))
			for i, repr := range reprUnderTest {
				cfg := repr.cfg()
				cfg.DeleteMode = mode
				cfg.PageWidth = 16 // small geometry branches sooner
				gts[i] = MustNew(cfg)
			}
			ref := newRefGraph()
			for i := 0; i+2 < len(data); i += 3 {
				op, s, d := data[i], uint64(data[i+1]%8), uint64(data[i+2]%96)
				switch op % 3 {
				case 0, 1:
					w := float32(op) + 1
					want := ref.insert(s, d, w)
					for j, gt := range gts {
						if gt.InsertEdge(s, d, w) != want {
							t.Fatalf("%s: insert(%d,%d) diverged at %d", reprUnderTest[j].name, s, d, i)
						}
					}
				case 2:
					want := ref.delete(s, d)
					for j, gt := range gts {
						if gt.DeleteEdge(s, d) != want {
							t.Fatalf("%s: delete(%d,%d) diverged at %d", reprUnderTest[j].name, s, d, i)
						}
					}
				}
			}
			for j, gt := range gts {
				if gt.NumEdges() != ref.numEdges() {
					t.Fatalf("%s: %d edges, reference has %d", reprUnderTest[j].name, gt.NumEdges(), ref.numEdges())
				}
				for src, m := range ref.adj {
					if gt.OutDegree(src) != uint32(len(m)) {
						t.Fatalf("%s: OutDegree(%d) = %d, want %d", reprUnderTest[j].name, src, gt.OutDegree(src), len(m))
					}
					for dst, w := range m {
						got, ok := gt.FindEdge(src, dst)
						if !ok || got != w {
							t.Fatalf("%s: FindEdge(%d,%d) = (%g,%v), want %g", reprUnderTest[j].name, src, dst, got, ok, w)
						}
					}
				}
				if v := gt.CheckInvariants(); len(v) != 0 {
					t.Fatalf("%s: invariants: %v", reprUnderTest[j].name, v)
				}
			}
		}
	})
}
