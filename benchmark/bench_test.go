package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// smokeRun runs every workload at smoke size with no time to fill: a
// warm-up round, then the fewest rounds a run makes.
func smokeRun(t *testing.T, seed uint64, traced bool) *report {
	t.Helper()
	cfg := runConfig{seed: seed, traced: traced, size: smokeSize, workdir: t.TempDir()}
	rep, err := run(workloadNames(), cfg, filepath.Join(cfg.workdir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Failed != 0 {
			t.Errorf("%s: %d failed operations: %v", r.Workload, r.Failed, r.Failures)
		}
	}
	return rep
}

// TestManifestMatchesBenchmarkJSON holds BENCHMARK.json, which the driver
// reads, to the tables the program emits from, and both to the contract's
// limits on names, units and counts.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var man benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &man); err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", man.RunSeconds, runSeconds)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", man.Paths)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(man.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not fit the contract", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if got := man.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program %q / %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared, program []metricDef, bounded bool) {
		if len(declared) != len(program) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(declared), len(program))
		}
		for i, m := range program {
			unique(m.Name)
			if declared[i] != m {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program %+v", kind, i, declared[i], m)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not fit the contract", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s: bound %g", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better; have %+v", m)
	}
	for _, name := range exactLayer {
		if !seen[name] {
			t.Errorf("exactLayer names %q, which is not declared", name)
		}
	}
}

// TestSmokeEndToEnd: every workload emits every declared end-to-end
// metric, finite and non-zero, and nothing else.
func TestSmokeEndToEnd(t *testing.T) {
	rep := smokeRun(t, 7, false)
	if h := rep.Header; h.NumCPU == 0 || h.GOMAXPROCS == 0 || h.GoVersion == "" || h.FsyncProbe.N != 50 {
		t.Errorf("incomplete header %+v", h)
	}
	for _, r := range rep.Results {
		line := r.contractLine()
		if len(line.Metrics) != len(endToEnd) || !line.Correct || line.Attempted < 1 {
			t.Errorf("%s: %d metrics (want %d), correct %v, attempted %d", r.Workload, len(line.Metrics), len(endToEnd), line.Correct, line.Attempted)
		}
		for _, d := range endToEnd {
			v, ok := line.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || v.Value <= 0 || math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
				t.Errorf("%s: %s = %+v (present %v)", r.Workload, d.Name, v, ok)
			}
		}
		if r.Checksum == 0 || r.Rounds < minRounds {
			t.Errorf("%s: checksum %08x after %d rounds", r.Workload, r.Checksum, r.Rounds)
		}
	}
}

// TestSmokePerLayer: a traced run emits every declared per-layer metric
// and nothing else, the layers a workload bypasses read 0, the exact
// counts repeat bit for bit on the same seed, and another seed is
// another input.
func TestSmokePerLayer(t *testing.T) {
	a, b, other := smokeRun(t, 7, true), smokeRun(t, 7, true), smokeRun(t, 8, true)
	for i, r := range a.Results {
		line := r.contractLine()
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", r.Workload, len(line.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			v, ok := line.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || v.Value < 0 || math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
				t.Errorf("%s: %s = %+v (present %v)", r.Workload, d.Name, v, ok)
			}
		}
		if r.PerLayer["trace.spans"] == 0 || r.PerLayer["trace.overhead_x"] == 0 {
			t.Errorf("%s: no spans or no overhead ratio: %v", r.Workload, r.PerLayer)
		}
		again := b.Results[i]
		if r.Checksum != again.Checksum {
			t.Errorf("%s: same seed, input checksums %08x and %08x", r.Workload, r.Checksum, again.Checksum)
		}
		if r.Checksum == other.Results[i].Checksum {
			t.Errorf("%s: seeds 7 and 8 gave the same input %08x", r.Workload, r.Checksum)
		}
		if r.Attempted != again.Attempted && r.Workload != "read-churn" { // its reader is closed-loop for a fixed time
			t.Errorf("%s: same seed, attempted %d and %d", r.Workload, r.Attempted, again.Attempted)
		}
		for _, name := range exactLayer {
			if x, y := r.PerLayer[name], again.PerLayer[name]; x != y {
				t.Errorf("%s: exact count %s differs across same-seed runs: %v, %v", r.Workload, name, x, y)
			}
		}
	}
	byName := map[string]*runResult{}
	for _, r := range a.Results {
		byName[r.Workload] = r
	}
	for _, w := range []string{"insert-core", "read-churn", "analytics-hybrid"} {
		for _, m := range []string{"wal.fsyncs", "wal.bytes_per_op", "ingest.flushes", "replication.frames", "facade.checkpoints"} {
			if v := byName[w].PerLayer[m]; v != 0 {
				t.Errorf("%s bypasses that layer, yet %s = %v", w, m, v)
			}
		}
	}
	for _, m := range []string{"wal.fsyncs", "ingest.flushes", "replication.frames", "facade.checkpoints", "ladder.replica_s", "wal.append_only_eps"} {
		if v := byName["stream-durable"].PerLayer[m]; v == 0 {
			t.Errorf("stream-durable: %s = 0", m)
		}
	}
	if v := byName["insert-core"].PerLayer["stinger.gt_over_stinger_x"]; v == 0 {
		t.Error("insert-core: no GT/STINGER ratio")
	}
	// The ladder's shares telescope to its last rung by construction.
	l := byName["stream-durable"].PerLayer
	rungs := []string{"ladder.apply_s", "ladder.ingest_s", "ladder.wal_s", "ladder.fsync_s", "ladder.replica_s"}
	total := l[rungs[0]]
	for i := 1; i < len(rungs); i++ {
		total += l[rungs[i]] - l[rungs[i-1]]
	}
	if math.Abs(total-l["ladder.replica_s"]) > 1e-9 {
		t.Errorf("ladder shares sum to %g, last rung is %g", total, l["ladder.replica_s"])
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, updates, ack float64) string {
		rep := report{Schema: reportSchema, Results: []*runResult{{
			Workload: "insert-core",
			EndToEnd: map[string]float64{"updates_per_s": updates, "ack_p50_ms": ack},
		}}}
		p := filepath.Join(dir, name)
		if err := writeJSON(p, rep); err != nil {
			t.Fatal(err)
		}
		return p
	}
	manifest := filepath.Join("..", "BENCHMARK.json")
	base := []string{write("a1", 100, 10), write("a2", 101, 10.1), write("a3", 99, 9.9)}
	var buf bytes.Buffer

	same := []string{write("b1", 100.5, 10), write("b2", 99.5, 10.05), write("b3", 100, 9.95)}
	worse, err := compareReports(&buf, manifest, base, same)
	if err != nil || worse {
		t.Errorf("equal sets: worse=%v err=%v\n%s", worse, err, buf.String())
	}
	if n := strings.Count(buf.String(), " ok\n"); n != 2 {
		t.Errorf("want 2 ok rows:\n%s", buf.String())
	}

	buf.Reset()
	slow := []string{write("c1", 70, 10), write("c2", 70.5, 10), write("c3", 69.5, 10)}
	worse, err = compareReports(&buf, manifest, base, slow)
	if err != nil || !worse || !strings.Contains(buf.String(), " worse\n") {
		t.Errorf("30%% fewer updates per second must be worse: worse=%v err=%v\n%s", worse, err, buf.String())
	}

	buf.Reset()
	noisy := []string{write("d1", 60, 10), write("d2", 100, 10), write("d3", 140, 10)}
	worse, err = compareReports(&buf, manifest, base, noisy)
	if err != nil || worse || !strings.Contains(buf.String(), " unresolved\n") {
		t.Errorf("a spread wider than the bound must be unresolved: worse=%v err=%v\n%s", worse, err, buf.String())
	}
}

func TestStats(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if q := tailQuantile(1000); q != 0.99 {
		t.Errorf("tailQuantile(1000) = %g", q)
	}
	if q := tailQuantile(200); q != 0.95 {
		t.Errorf("tailQuantile(200) = %g, want 0.95 (ten samples beyond it)", q)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g", m)
	}
}

func TestMixedStream(t *testing.T) {
	tuples, _, err := genTuples("RMAT_1M_10M", 512, 3, saltStream)
	if err != nil {
		t.Fatal(err)
	}
	ops := mixedStream(tuples, 2048)
	dels := 0
	for i, op := range ops {
		if !op.Del {
			continue
		}
		dels++
		if i < 2048 || i%deleteEvery != deleteEvery-1 {
			t.Fatalf("op %d is a delete", i)
		}
		j := i - 2048
		if ops[j].Del {
			j--
		}
		if ops[j].Src != op.Src || ops[j].Dst != op.Dst || ops[j].Del {
			t.Fatalf("op %d deletes %d->%d, which op %d did not insert", i, op.Src, op.Dst, j)
		}
	}
	if want := (len(ops) - 2048) / deleteEvery; dels < want-1 || dels > want+1 {
		t.Errorf("%d deletes in %d ops, want about %d", dels, len(ops), want)
	}
}
