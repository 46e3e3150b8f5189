package datasets

import "testing"

func TestTable1HasSixDatasets(t *testing.T) {
	ds := Table1()
	if len(ds) != 6 {
		t.Fatalf("Table1 has %d datasets, want 6", len(ds))
	}
	wantNames := []string{
		"RMAT_1M_10M", "RMAT_500K_8M", "RMAT_1M_16M", "RMAT_2M_32M",
		"Hollywood-2009", "Kron_g500-logn21",
	}
	for i, d := range ds {
		if d.Name != wantNames[i] {
			t.Fatalf("dataset %d = %q, want %q", i, d.Name, wantNames[i])
		}
		if d.Vertices == 0 || d.Edges == 0 {
			t.Fatalf("dataset %s missing Table-1 counts", d.Name)
		}
	}
}

func TestTable1CountsMatchPaper(t *testing.T) {
	check := func(name string, v, e uint64) {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Vertices != v || d.Edges != e {
			t.Fatalf("%s = (%d,%d), want (%d,%d)", name, d.Vertices, d.Edges, v, e)
		}
	}
	check("RMAT_1M_10M", 1000192, 10000000)
	check("RMAT_500K_8M", 524288, 8380000)
	check("RMAT_1M_16M", 1048576, 15700000)
	check("RMAT_2M_32M", 2097152, 31770000)
	check("Hollywood-2009", 1139906, 113891327)
	check("Kron_g500-logn21", 2097153, 182082942)
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatalf("unknown name accepted")
	}
}

func TestNames(t *testing.T) {
	if len(Names()) != 6 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestScaledParamsPreserveAvgDegree(t *testing.T) {
	d, _ := ByName("RMAT_2M_32M")
	full, err := d.ScaledParams(1)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := d.ScaledParams(64)
	if err != nil {
		t.Fatal(err)
	}
	fullDeg := float64(full.NumEdges) / float64(full.NumVertices())
	scaledDeg := float64(scaled.NumEdges) / float64(scaled.NumVertices())
	if scaledDeg < fullDeg*0.5 || scaledDeg > fullDeg*2 {
		t.Fatalf("avg degree drifted: full %.1f scaled %.1f", fullDeg, scaledDeg)
	}
	if _, err := d.ScaledParams(0); err == nil {
		t.Fatalf("divisor 0 accepted")
	}
}

func TestScaledParamsFloors(t *testing.T) {
	d, _ := ByName("RMAT_500K_8M")
	p, err := d.ScaledParams(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if p.Scale < 4 {
		t.Fatalf("scale floored below 4: %d", p.Scale)
	}
	if p.NumEdges < 1000 {
		t.Fatalf("edges floored below 1000: %d", p.NumEdges)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("floored params invalid: %v", err)
	}
}

func TestMaterializeBatchSizes(t *testing.T) {
	d, _ := ByName("RMAT_1M_10M")
	batches, err := d.Materialize(1024, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) == 0 {
		t.Fatalf("no batches")
	}
	for i, b := range batches[:len(batches)-1] {
		if len(b) != 2000 {
			t.Fatalf("batch %d has %d edges", i, len(b))
		}
	}
	if _, err := d.Materialize(1024, 0); err == nil {
		t.Fatalf("zero batch size accepted")
	}
	if _, err := d.Materialize(0, 100); err == nil {
		t.Fatalf("zero divisor accepted")
	}
}

func TestSymmetricDatasetEmitsBothDirections(t *testing.T) {
	d, _ := ByName("Hollywood-2009")
	if !d.Symmetric {
		t.Fatalf("hollywood stand-in must be symmetric")
	}
	batches, err := d.Materialize(4096, 100000)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ s, d uint64 }
	seen := make(map[pair]bool)
	for _, b := range batches {
		for _, e := range b {
			seen[pair{e.Src, e.Dst}] = true
		}
	}
	for p := range seen {
		if !seen[pair{p.d, p.s}] {
			t.Fatalf("edge (%d,%d) has no reverse", p.s, p.d)
		}
	}
}

func TestMeasure(t *testing.T) {
	d, _ := ByName("RMAT_500K_8M")
	st, err := d.Measure(512, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != d.Name || st.Kind != "synthetic" {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.GenEdges == 0 || st.UniqueEdges == 0 || st.GenVertices == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.UniqueEdges > st.GenEdges {
		t.Fatalf("unique > generated: %+v", st)
	}
	if st.MaxOutDegree == 0 || st.AvgOutDegree <= 0 {
		t.Fatalf("degree stats empty: %+v", st)
	}
	if float64(st.MaxOutDegree) < 5*st.AvgOutDegree {
		t.Fatalf("RMAT degree distribution should be skewed: max %d avg %.1f", st.MaxOutDegree, st.AvgOutDegree)
	}
	if _, err := d.Measure(0, 100); err == nil {
		t.Fatalf("invalid divisor accepted")
	}
}

func TestDeterministicMaterialization(t *testing.T) {
	d, _ := ByName("RMAT_1M_16M")
	a, _ := d.Materialize(2048, 1000)
	b, _ := d.Materialize(2048, 1000)
	if len(a) != len(b) {
		t.Fatalf("batch counts differ")
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("batch %d edge %d differs", i, j)
			}
		}
	}
}

func TestRoundDivisor(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {2, 2}, {3, 4}, {64, 64}, {100, 128}, {129, 256}} {
		if got := RoundDivisor(c[0]); got != c[1] {
			t.Fatalf("RoundDivisor(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}
