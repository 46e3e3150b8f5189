package analysis

// Golden-diagnostic tests: each fixture under testdata/src/<name> is a
// self-contained module. Lines carrying `want:<check> "substring"`
// markers must produce exactly one diagnostic of that check on that line
// whose message contains the substring; any other diagnostic fails the
// test. TestGtlintSelfClean runs the full suite over the real module and
// pins it clean.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRE = regexp.MustCompile(`want:([a-z]+) "([^"]+)"`)

type want struct {
	check, substr string
	file          string
	line          int
}

func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	var out []want
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() ||
			!(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".spec")) {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				out = append(out, want{check: m[1], substr: m[2], file: path, line: i + 1})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("parse wants: %v", err)
	}
	return out
}

// checkFixture runs one per-package analyzer suite over a fixture
// module and compares the unsuppressed diagnostics against the want
// markers.
func checkFixture(t *testing.T, fixture string, suite []*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	res, err := run(dir, suite)
	if err != nil {
		t.Fatalf("run %s: %v", fixture, err)
	}
	compareFixture(t, dir, res)
}

// checkModuleFixture is checkFixture for whole-module analyzers.
func checkModuleFixture(t *testing.T, fixture string, msuite []*ModuleAnalyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	res, err := runModule(dir, msuite)
	if err != nil {
		t.Fatalf("run %s: %v", fixture, err)
	}
	compareFixture(t, dir, res)
}

func compareFixture(t *testing.T, dir string, res *Result) {
	t.Helper()
	wants := parseWants(t, dir)
	got := res.Unsuppressed()
	used := make([]bool, len(got))
	for _, w := range wants {
		found := false
		for i, d := range got {
			if used[i] || d.Check != w.check ||
				d.Position.Filename != w.file || d.Position.Line != w.line ||
				!strings.Contains(d.Message, w.substr) {
				continue
			}
			used[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("missing diagnostic at %s:%d: [%s] ~%q", w.file, w.line, w.check, w.substr)
		}
	}
	for i, d := range got {
		if !used[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestLockHold(t *testing.T) {
	checkFixture(t, "lockhold", []*Analyzer{LockHold})
}

func TestFailpointReg(t *testing.T) {
	saved := failpointNames
	resetFailpointState(map[string]bool{"wal/append": true, "ingest/apply": true})
	defer resetFailpointState(saved)
	checkFixture(t, "failpointreg", []*Analyzer{FailpointReg})
}

func TestErrWrapDiscipline(t *testing.T) {
	checkFixture(t, "errwrapdiscipline", []*Analyzer{ErrWrapDiscipline})
}

func TestClockBan(t *testing.T) {
	checkFixture(t, "clockban", []*Analyzer{ClockBan})
}

func TestSeqlockFence(t *testing.T) {
	checkFixture(t, "seqlockfence", []*Analyzer{SeqlockFence})
}

func TestSyncErr(t *testing.T) {
	checkFixture(t, "syncerr", []*Analyzer{SyncErr})
}

func TestContainerIface(t *testing.T) {
	checkFixture(t, "containeriface", []*Analyzer{ContainerIface})
}

func TestLockOrder(t *testing.T) {
	checkModuleFixture(t, "lockorder", []*ModuleAnalyzer{LockOrder})
}

func TestGoroLeak(t *testing.T) {
	checkFixture(t, "goroleak", []*Analyzer{GoroLeak})
}

func TestBufRetain(t *testing.T) {
	checkModuleFixture(t, "bufretain", []*ModuleAnalyzer{BufRetain})
}

func TestSuppressions(t *testing.T) {
	checkFixture(t, "suppression", []*Analyzer{SyncErr})
}

// TestGtlintSelfClean pins the repository itself: the full suite over
// the real module must report zero unsuppressed findings, and every
// suppression must carry a reason and cover a live finding (stale ones
// surface as findings and fail this test too).
func TestGtlintSelfClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(root)
	if err != nil {
		t.Fatalf("analyze module: %v", err)
	}
	for _, d := range res.Unsuppressed() {
		t.Errorf("unsuppressed finding: %s", Format(root, d))
	}
	if n := len(res.Suppressed()); n == 0 {
		t.Error("expected documented suppressions in the tree, found none (suppression parsing broken?)")
	}
}
