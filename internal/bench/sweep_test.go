package bench

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
)

// sweepDivisor is the scale of the threshold sweep's inputs: the six
// Table-1 stand-ins at 1/128, the scale of results/gtbench_scale128.txt.
const sweepDivisor = 128

// sweepPromotePoints are the candidate CuckooPromoteDegree values; each is
// swept with CuckooDemoteDegree at half of it.
var sweepPromotePoints = []int{64, 128, 256, 512, 1024, 2048, 4096}

// sweepInput is one stand-in's load and its lookup sample.
type sweepInput struct {
	batches [][]core.Edge
	probes  []core.Edge // half stored edges, half absent ones
}

// sweepRun is one load of every stand-in under one configuration.
type sweepRun struct {
	bytesPerEdge float64 // HeapAlloc growth per live edge
	insertMEPS   float64 // Medges/s over the inserts of all stand-ins
	findNs       float64 // mean FindEdge time over all probes

	// relRate and relFind are insertMEPS and findNs over the mean of the
	// promote points' loads in the same iteration.
	relRate, relFind float64
}

// BenchmarkReprThresholds is the sweep the adaptive representation's
// default thresholds come from. It loads every Table-1 stand-in into a
// fresh GraphTinker under each configuration: the adaptive representation
// at each promote point of sweepPromotePoints, and the paper's block tree
// (ReprBlocks) for reference. One iteration loads each configuration once,
// in an order rotated by the iteration, so drift in the host's speed
// spreads over all configurations alike. A load records the heap B/edge
// (HeapAlloc growth across the load, each side after two forced GCs, per
// live edge), the insert rate and the FindEdge time. The printed table
// gives each metric's median and its run-to-run spread (the distance
// between the quartiles of the iterations), and names the pick: the lowest
// B/edge among the promote points whose relative insert rate and find time
// are within spread of the best point's.
//
//	go test -run '^$' -bench ReprThresholds -benchtime 15x ./internal/bench
//
// With -benchtime 1x it is a smoke run: every spread is 0, so usually no
// point qualifies and the table says so.
func BenchmarkReprThresholds(b *testing.B) {
	opts := DefaultOptions()
	opts.ScaleDivisor = sweepDivisor
	var inputs []sweepInput
	for _, d := range datasets.Table1() {
		batches, err := opts.materialize(d)
		if err != nil {
			b.Fatal(err)
		}
		all := flatten(batches)
		var probes []core.Edge
		for i := 0; i < len(all); i += 1 + len(all)/32768 {
			e := all[i]
			probes = append(probes, e, core.Edge{Src: e.Src, Dst: e.Dst + 1<<40})
		}
		inputs = append(inputs, sweepInput{batches: batches, probes: probes})
	}

	type row struct {
		name  string
		point bool // a promote point, not the reference
		cfg   core.Config
		runs  []sweepRun
	}
	var rows []*row
	for _, p := range sweepPromotePoints {
		cfg := core.DefaultConfig()
		cfg.CuckooPromoteDegree, cfg.CuckooDemoteDegree = p, p/2
		rows = append(rows, &row{name: fmt.Sprintf("promote=%d", p), point: true, cfg: cfg})
	}
	rows = append(rows, &row{name: "blocks", cfg: gtConfig()})
	b.Run("interleaved", func(b *testing.B) {
		// The last call (at the requested b.N) is the one kept.
		for _, r := range rows {
			r.runs = r.runs[:0]
		}
		for i := 0; i < b.N; i++ {
			for j := range rows {
				r := rows[(i+j)%len(rows)]
				r.runs = append(r.runs, sweepLoad(r.cfg, inputs))
			}
		}
	})

	if len(rows[0].runs) == 0 {
		return // a -bench sub-filter skipped the loads
	}
	// Each load's speed relative to the mean of the promote points in the
	// same iteration: drift in the host's speed between iterations cancels,
	// so the quartile spread left is the configurations' own.
	points := rows[:len(sweepPromotePoints)]
	for i := range rows[0].runs {
		var rate, find float64
		for _, r := range points {
			rate += r.runs[i].insertMEPS / float64(len(points))
			find += r.runs[i].findNs / float64(len(points))
		}
		for _, r := range rows {
			r.runs[i].relRate = r.runs[i].insertMEPS / rate
			r.runs[i].relFind = r.runs[i].findNs / find
		}
	}

	t := Table{
		ID:      "repr-thresholds",
		Title:   fmt.Sprintf("Adaptive promote point sweep, Table-1 stand-ins at 1/%d (median ± quartile spread)", sweepDivisor),
		Columns: []string{"config", "runs", "B/edge", "Medges/s", "find ns", "rel rate", "rel find"},
	}
	for _, r := range rows {
		t.AddRow(r.name, itoa(len(r.runs)),
			f1(median(r.runs, bytesOf))+" ± "+f1(spread(r.runs, bytesOf)),
			f2(median(r.runs, rateOf))+" ± "+f2(spread(r.runs, rateOf)),
			f1(median(r.runs, findOf))+" ± "+f1(spread(r.runs, findOf)),
			f2(median(r.runs, relRateOf))+" ± "+f2(spread(r.runs, relRateOf)),
			f2(median(r.runs, relFindOf))+" ± "+f2(spread(r.runs, relFindOf)))
	}
	fastest, quickest := points[0], points[0]
	for _, r := range points {
		if median(r.runs, relRateOf) > median(fastest.runs, relRateOf) {
			fastest = r
		}
		if median(r.runs, relFindOf) < median(quickest.runs, relFindOf) {
			quickest = r
		}
	}
	pick := "none (no point is within spread of both; one run has no spread)"
	var pickBytes float64
	for _, r := range points {
		rateOK := median(fastest.runs, relRateOf)-median(r.runs, relRateOf) <= max(spread(fastest.runs, relRateOf), spread(r.runs, relRateOf))
		findOK := median(r.runs, relFindOf)-median(quickest.runs, relFindOf) <= max(spread(quickest.runs, relFindOf), spread(r.runs, relFindOf))
		if bytes := median(r.runs, bytesOf); rateOK && findOK && (pickBytes == 0 || bytes < pickBytes) {
			pick, pickBytes = r.name, bytes
		}
	}
	t.AddNote("rel: a load's insert rate or find time over the mean of the promote points in the same iteration")
	t.AddNote("fastest insert: %s; fastest find: %s; pick (fewest B/edge within rel spread of both): %s",
		fastest.name, quickest.name, pick)
	// Printed, not logged: the testing package trims a benchmark's log to
	// ten lines.
	fmt.Print(t.Format())
}

// sweepLoad loads every input into a fresh instance of cfg, one at a time.
func sweepLoad(cfg core.Config, inputs []sweepInput) sweepRun {
	var heapBytes, edges, finds float64
	var insertS, findS time.Duration
	for _, in := range inputs {
		base := heapAfterGC()
		g := core.MustNew(cfg)
		start := time.Now()
		for _, batch := range in.batches {
			g.InsertBatch(batch)
		}
		insertS += time.Since(start)
		start = time.Now()
		for _, e := range in.probes {
			g.FindEdge(e.Src, e.Dst)
		}
		findS += time.Since(start)
		heapBytes += float64(heapAfterGC() - base)
		edges += float64(g.NumEdges())
		finds += float64(len(in.probes))
		runtime.KeepAlive(g)
	}
	return sweepRun{
		bytesPerEdge: heapBytes / edges,
		insertMEPS:   edges / insertS.Seconds() / 1e6,
		findNs:       float64(findS.Nanoseconds()) / finds,
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func bytesOf(r sweepRun) float64 { return r.bytesPerEdge }
func rateOf(r sweepRun) float64  { return r.insertMEPS }
func findOf(r sweepRun) float64  { return r.findNs }

func relRateOf(r sweepRun) float64 { return r.relRate }
func relFindOf(r sweepRun) float64 { return r.relFind }

// quantile is the q-th quantile of one metric over runs, interpolating
// between the two nearest ranks.
func quantile(runs []sweepRun, of func(sweepRun) float64, q float64) float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = of(r)
	}
	slices.Sort(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	hi := min(lo+1, len(vs)-1)
	return vs[lo] + (pos-float64(lo))*(vs[hi]-vs[lo])
}

func median(runs []sweepRun, of func(sweepRun) float64) float64 {
	return quantile(runs, of, 0.5)
}

// spread is the distance between the quartiles.
func spread(runs []sweepRun, of func(sweepRun) float64) float64 {
	return quantile(runs, of, 0.75) - quantile(runs, of, 0.25)
}

// wideSlice is the slice size above which the reports below count an
// update as a wide shift: an insert or delete there moves on average more
// than 128 entries (3 KB), against at most 32 entries when the slice tier
// ended at degree 32.
const wideSlice = 256

// BenchmarkReprWideSliceShare measures the write-side exposure of a high
// promote point: the share of updates that land on a slice holding more
// than wideSlice entries, where each one shifts the entries above it. The
// streams are the sweep's Table-1 stand-ins and streams shaped like the
// repository benchmark's workloads (RMAT_1M_10M at 1/8 inserted and then
// half deleted, as insert-core; the same supply with every tenth op
// deleting the edge inserted 65,536 ops earlier, as stream-durable,
// stream-paced and read-churn; RMAT_500K_8M at 1/16 inserted, as
// analytics-hybrid). Each stream is replayed once; the tier of each
// vertex under every promote point is followed with the adaptive
// representation's own rule, so the shares are exact counts.
//
//	go test -run '^$' -bench ReprWideSliceShare -benchtime 1x ./internal/bench
func BenchmarkReprWideSliceShare(b *testing.B) {
	type stream struct {
		name string
		ops  []core.EdgeOp
	}
	load := func(name string, divisor int) []core.Edge {
		d, err := datasets.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		opts := DefaultOptions()
		opts.ScaleDivisor = divisor
		batches, err := opts.materialize(d)
		if err != nil {
			b.Fatal(err)
		}
		return flatten(batches)
	}
	inserts := func(es []core.Edge) []core.EdgeOp {
		ops := make([]core.EdgeOp, len(es))
		for i, e := range es {
			ops[i] = core.InsertOp(e.Src, e.Dst, e.Weight)
		}
		return ops
	}
	var streams []stream
	for _, d := range datasets.Table1() {
		streams = append(streams, stream{fmt.Sprintf("%s /%d", d.Name, sweepDivisor), inserts(load(d.Name, sweepDivisor))})
	}
	ruler := load("RMAT_1M_10M", 8)
	insertThenDelete := inserts(ruler)
	for _, e := range ruler[:len(ruler)/2] {
		insertThenDelete = append(insertThenDelete, core.DeleteOp(e.Src, e.Dst))
	}
	mixed := inserts(ruler)
	const lag = 65536
	for i := lag + 9; i < len(mixed); i += 10 {
		j := i - lag
		if j%10 == 9 {
			j--
		}
		mixed[i] = core.DeleteOp(ruler[j].Src, ruler[j].Dst)
	}
	streams = append(streams,
		stream{"insert-core shape", insertThenDelete},
		stream{"stream/read-churn shape", mixed},
		stream{"analytics-hybrid shape", inserts(load("RMAT_500K_8M", 16))})

	var points []int
	for _, p := range sweepPromotePoints {
		if p > wideSlice {
			points = append(points, p)
		}
	}
	t := Table{
		ID:      "repr-wide-slice",
		Title:   fmt.Sprintf("Share of updates landing on a slice of more than %d entries, by promote point", wideSlice),
		Columns: []string{"stream", "updates"},
	}
	for _, p := range points {
		t.Columns = append(t.Columns, fmt.Sprintf("promote=%d", p))
	}
	for i := 0; i < b.N; i++ {
		t.Rows = t.Rows[:0]
		for _, s := range streams {
			row := []string{s.name, itoa(len(s.ops))}
			for _, share := range wideSliceShares(s.ops, points) {
				row = append(row, fmt.Sprintf("%.2f%%", 100*share))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("at promote points of %d and below no slice exceeds %d entries", wideSlice, wideSlice)
	fmt.Print(t.Format())
}

// wideSliceShares replays ops and returns, for each promote point (demote
// at half), the share of ops that found their source in the slice tier
// with more than wideSlice entries.
func wideSliceShares(ops []core.EdgeOp, points []int) []float64 {
	g := core.MustNew(core.DefaultConfig())
	inCuckoo := make([]map[uint64]bool, len(points))
	for i := range inCuckoo {
		inCuckoo[i] = map[uint64]bool{}
	}
	wide := make([]int, len(points))
	for _, op := range ops {
		deg := int(g.OutDegree(op.Src))
		var changed bool
		if op.Del {
			changed = g.DeleteEdge(op.Src, op.Dst)
		} else {
			changed = g.InsertEdge(op.Src, op.Dst, op.Weight)
		}
		for i, p := range points {
			cuckoo := inCuckoo[i][op.Src]
			if !cuckoo && deg > wideSlice {
				wide[i]++
			}
			switch {
			case changed && !op.Del && !cuckoo && deg+1 > p:
				inCuckoo[i][op.Src] = true
			case changed && op.Del && cuckoo && deg-1 <= p/2:
				delete(inCuckoo[i], op.Src)
			}
		}
	}
	shares := make([]float64, len(points))
	for i := range shares {
		shares[i] = float64(wide[i]) / float64(len(ops))
	}
	return shares
}
