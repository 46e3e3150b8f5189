package engine

// Tests for the observability layer: full per-iteration trace equivalence
// between one-worker and split engines, RunResult.Merge trace
// consistency, the Threshold zero-sentinel contract, and the JSON shape of
// run traces emitted through -metrics-out.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// stripDurations zeroes the wall-clock fields so traces from different
// engines can be compared exactly.
func stripDurations(its []IterationStats) []IterationStats {
	out := make([]IterationStats, len(its))
	copy(out, its)
	for i := range out {
		out[i].Duration = 0
		out[i].ProcessDuration = 0
		out[i].MergeDuration = 0
		out[i].ApplyDuration = 0
	}
	return out
}

// TestIterationStatsEquivalence runs the same program over the same edges
// on a one-worker engine and on an engine split one worker per shard in
// all three modes and requires the full IterationStats traces (everything
// but wall time) to match — in particular ActiveDegreeSum, which the
// sharded engine used to leave at zero.
func TestIterationStatsEquivalence(t *testing.T) {
	for _, mode := range []Mode{FullProcessing, IncrementalProcessing, Hybrid} {
		for _, shards := range []int{1, 4} {
			edges := splitTestEdges(31 + uint64(mode) + uint64(shards))
			seq := oneWorker(newStore(t, edges), minProgram(), Options{Mode: mode})
			seqRes := seq.RunFromScratch()

			par := shardNew(shardedStore(t, shards, edges), minProgram(), Options{Mode: mode})
			parRes := par.RunFromScratch()
			if shards > 1 {
				requireSplit(t, fmt.Sprintf("mode %v shards %d", mode, shards), parRes)
			}

			if len(seqRes.Iterations) != len(parRes.Iterations) {
				t.Fatalf("mode %v shards %d: iteration counts %d vs %d",
					mode, shards, len(seqRes.Iterations), len(parRes.Iterations))
			}
			ss, ps := stripDurations(seqRes.Iterations), stripDurations(parRes.Iterations)
			var degreeSumTotal uint64
			for i := range ss {
				if ss[i] != ps[i] {
					t.Fatalf("mode %v shards %d iter %d:\nsequential %+v\nparallel   %+v",
						mode, shards, i, ss[i], ps[i])
				}
				degreeSumTotal += ps[i].ActiveDegreeSum
			}
			if degreeSumTotal == 0 {
				t.Fatalf("mode %v shards %d: parallel trace never recorded an active degree sum", mode, shards)
			}
		}
	}
}

// TestPhaseDurationsPartitionIteration checks the per-phase timings are
// recorded and never exceed the iteration wall time. The one-worker half
// runs on STINGER, whose walk New does not split; the sharded and split
// engines each split some iteration, which records a merge phase.
func TestPhaseDurationsPartitionIteration(t *testing.T) {
	edges := splitTestEdges(7)

	seqRes := MustNew(newStingerStore(edges), minProgram(), Options{Mode: Hybrid}).RunFromScratch()
	for _, it := range seqRes.Iterations {
		if it.ProcessDuration <= 0 || it.ApplyDuration < 0 {
			t.Fatalf("sequential iter %d: phase durations not recorded: %+v", it.Index, it)
		}
		if it.MergeDuration != 0 {
			t.Fatalf("sequential engine has no merge phase, got %v", it.MergeDuration)
		}
		if it.ProcessDuration+it.MergeDuration+it.ApplyDuration > it.Duration {
			t.Fatalf("sequential iter %d: phases exceed wall time: %+v", it.Index, it)
		}
	}

	for name, e := range map[string]*Engine{
		"sharded": shardNew(shardedStore(t, 4, edges), minProgram(), Options{Mode: Hybrid}),
		"split":   splitNew(newStore(t, edges), minProgram(), Options{Mode: Hybrid}),
	} {
		res := e.RunFromScratch()
		requireSplit(t, name, res)
		for _, it := range res.Iterations {
			if it.ProcessDuration <= 0 || it.MergeDuration < 0 || it.ApplyDuration < 0 {
				t.Fatalf("%s iter %d: phase durations not recorded: %+v", name, it.Index, it)
			}
			if it.ProcessDuration+it.MergeDuration+it.ApplyDuration > it.Duration {
				t.Fatalf("%s iter %d: phases exceed wall time: %+v", name, it.Index, it)
			}
		}
	}
}

// TestMergeKeepsIterationTraces is the regression for the Merge bug: the
// per-iteration slices must be concatenated so the trace length stays
// consistent with the full/incremental iteration counts.
func TestMergeKeepsIterationTraces(t *testing.T) {
	store := newStore(t, pathEdges(6))
	e := MustNew(store, minProgram(), Options{Mode: IncrementalProcessing})
	a := e.RunFromScratch()
	b := e.RunFromScratch()
	wantLen := len(a.Iterations) + len(b.Iterations)
	if wantLen == 0 {
		t.Fatalf("degenerate runs: no iterations")
	}

	a.Merge(b)
	if len(a.Iterations) != wantLen {
		t.Fatalf("Merge kept %d iterations, want %d", len(a.Iterations), wantLen)
	}
	if got := a.FullIterations + a.IncrementalIterations; got != wantLen {
		t.Fatalf("iteration counts %d disagree with trace length %d", got, wantLen)
	}
	var loaded uint64
	for _, it := range a.Iterations {
		loaded += it.EdgesLoaded
	}
	if loaded != a.EdgesLoaded {
		t.Fatalf("merged trace sums %d edges loaded, totals say %d", loaded, a.EdgesLoaded)
	}
}

// TestThresholdZeroSentinel pins the documented Threshold contract over a
// lone and a sharded store: zero selects DefaultThreshold, positives are
// verbatim, and the negative-value error names the actual rule.
func TestThresholdZeroSentinel(t *testing.T) {
	seqStore := newStore(t, pathEdges(3))
	parStore := shardedStore(t, 2, pathEdges(3))

	e, err := New(seqStore, minProgram(), Options{Mode: Hybrid, Threshold: 0})
	if err != nil {
		t.Fatalf("zero threshold rejected: %v", err)
	}
	if e.opts.Threshold != DefaultThreshold {
		t.Fatalf("zero sentinel resolved to %g, want %g", e.opts.Threshold, DefaultThreshold)
	}
	e2, err := New(seqStore, minProgram(), Options{Mode: Hybrid, Threshold: 0.5})
	if err != nil || e2.opts.Threshold != 0.5 {
		t.Fatalf("positive threshold not taken verbatim: %v, %g", err, e2.opts.Threshold)
	}

	pe, err := New(parStore, minProgram(), Options{Mode: Hybrid, Threshold: 0})
	if err != nil {
		t.Fatalf("parallel zero threshold rejected: %v", err)
	}
	if pe.opts.Threshold != DefaultThreshold {
		t.Fatalf("parallel zero sentinel resolved to %g", pe.opts.Threshold)
	}

	for name, build := range map[string]func() error{
		"sequential": func() error { _, err := New(seqStore, minProgram(), Options{Threshold: -0.5}); return err },
		"parallel": func() error {
			_, err := New(parStore, minProgram(), Options{Threshold: -0.5})
			return err
		},
	} {
		err := build()
		if err == nil {
			t.Fatalf("%s: negative threshold accepted", name)
		}
		if !strings.Contains(err.Error(), "negative") || !strings.Contains(err.Error(), "default") {
			t.Fatalf("%s: error %q does not state the actual rule", name, err)
		}
	}
}

// TestRunResultJSONShape checks the snapshot schema: mode as a name,
// durations as integer nanoseconds, per-iteration trace embedded.
func TestRunResultJSONShape(t *testing.T) {
	store := newStore(t, pathEdges(4))
	res := MustNew(store, minProgram(), Options{Mode: Hybrid}).RunFromScratch()

	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["mode"] != "hybrid" {
		t.Fatalf("mode marshalled as %v, want \"hybrid\"", decoded["mode"])
	}
	iters, ok := decoded["iterations"].([]any)
	if !ok || len(iters) != len(res.Iterations) {
		t.Fatalf("iterations not embedded: %v", decoded["iterations"])
	}
	first, ok := iters[0].(map[string]any)
	if !ok {
		t.Fatalf("iteration trace not an object")
	}
	for _, key := range []string{"index", "active", "active_degree_sum", "predictor_t",
		"edges_loaded", "duration_ns", "process_ns", "merge_ns", "apply_ns"} {
		if _, present := first[key]; !present {
			t.Fatalf("iteration trace missing %q: %v", key, first)
		}
	}
}
