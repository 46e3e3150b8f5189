package bench

import (
	"strings"
	"testing"

	"graphtinker/internal/core"
)

func TestTableFormat(t *testing.T) {
	tb := Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "longcolumn"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333333", "4")
	tb.AddNote("hello %d", 42)
	out := tb.Format()
	if !strings.Contains(out, "== x: demo ==") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "longcolumn") || !strings.Contains(out, "333333") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "note: hello 42") {
		t.Fatalf("missing note:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 6 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Columns: []string{"a", "b"}}
	tb.AddRow("1", `x,y "z"`)
	tb.AddRow("2", "plain")
	got := tb.CSV()
	want := "a,b\n1,\"x,y \"\"z\"\"\"\n2,plain\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestRegistryCoversEveryExhibit(t *testing.T) {
	want := []string{
		"table1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ablation", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"ext-wb", "ext-calgroup", "ext-rhh", "ext-vc", "ext-mem", "ext-predictor", "ext-scaling",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("experiment %d = %q, want %q", i, reg[i].ID, id)
		}
		if reg[i].Run == nil || reg[i].Paper == "" {
			t.Fatalf("experiment %q incomplete", id)
		}
	}
	if _, err := ByID("fig8"); err != nil {
		t.Fatalf("ByID: %v", err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatalf("unknown id accepted")
	}
	if len(IDs()) != len(want) {
		t.Fatalf("IDs() = %v", IDs())
	}
}

// TestAllExperimentsRunAtQuickScale executes every registered driver end to
// end at the tiny test scale and sanity-checks the output tables.
func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow for -short")
	}
	opts := QuickOptions()
	for _, exp := range Registry() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tb, err := exp.Run(opts)
			if err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			if tb.ID != exp.ID {
				t.Fatalf("table id %q != experiment id %q", tb.ID, exp.ID)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", exp.ID)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Fatalf("%s row width %d != %d columns", exp.ID, len(row), len(tb.Columns))
				}
			}
			out := tb.Format()
			if len(out) == 0 {
				t.Fatalf("%s formatted to nothing", exp.ID)
			}
		})
	}
}

func TestBatchTimingMEPS(t *testing.T) {
	b := BatchTiming{Edges: 2_000_000, Seconds: 1}
	if b.MEPS() != 2 {
		t.Fatalf("MEPS = %g", b.MEPS())
	}
	z := BatchTiming{Edges: 5, Seconds: 0}
	if z.MEPS() != 0 {
		t.Fatalf("zero-time MEPS = %g", z.MEPS())
	}
}

func TestDegradationHelper(t *testing.T) {
	ts := []BatchTiming{
		{Edges: 100, Seconds: 1}, // 100 e/s
		{Edges: 100, Seconds: 2}, // 50 e/s
		{Edges: 100, Seconds: 4}, // 25 e/s
	}
	if got := degradation(ts, 0, 2); got < 0.74 || got > 0.76 {
		t.Fatalf("degradation = %g, want 0.75", got)
	}
	if degradation(ts, 2, 0) != 0 || degradation(ts, -1, 1) != 0 || degradation(ts, 0, 9) != 0 {
		t.Fatalf("bad index handling")
	}
}

func TestPickRootFindsHighestDegree(t *testing.T) {
	batches := [][]core.Edge{
		{{Src: 1, Dst: 2, Weight: 1}, {Src: 1, Dst: 3, Weight: 1}},
		{{Src: 2, Dst: 3, Weight: 1}, {Src: 1, Dst: 4, Weight: 1}},
	}
	if got := pickRoot(batches); got != 1 {
		t.Fatalf("pickRoot = %d, want 1", got)
	}
	if got := pickRoot(nil); got != 0 {
		t.Fatalf("pickRoot on empty = %d", got)
	}
}

func TestRatioString(t *testing.T) {
	if (Ratio{4, 7}).String() != "4:7" {
		t.Fatalf("Ratio.String = %q", (Ratio{4, 7}).String())
	}
}

func TestFlattenAndMaxID(t *testing.T) {
	batches := [][]core.Edge{
		{{Src: 1, Dst: 900, Weight: 1}},
		{{Src: 7, Dst: 2, Weight: 1}},
	}
	if got := len(flatten(batches)); got != 2 {
		t.Fatalf("flatten = %d edges", got)
	}
	if got := maxIDOf(batches); got != 900 {
		t.Fatalf("maxIDOf = %d", got)
	}
}

func TestProgramLookup(t *testing.T) {
	for _, alg := range []string{"bfs", "sssp", "cc"} {
		if _, err := program(alg, 0); err != nil {
			t.Fatalf("program(%q): %v", alg, err)
		}
	}
	if _, err := program("pagerank", 0); err == nil {
		t.Fatalf("unknown algorithm accepted")
	}
}

// TestTable1TitlesRoundedDivisor: a divisor that is not a power of two is
// titled with the power of two the inputs are generated at.
func TestTable1TitlesRoundedDivisor(t *testing.T) {
	tb, err := Table1(Options{ScaleDivisor: 100, Batches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Title, "generated at 1/128 scale") {
		t.Fatalf("Table1 at divisor 100 is titled %q, want the 1/128 it generates", tb.Title)
	}
}
