// Command gtbench regenerates the tables and figures of the GraphTinker
// paper's evaluation section.
//
// Usage:
//
//	gtbench -exp all                 # run every experiment (paper order)
//	gtbench -exp fig8,fig11          # run a subset
//	gtbench -list                    # list experiment ids
//	gtbench -exp fig9 -scale 64      # 1/64 of paper dataset sizes
//	gtbench -exp fig10 -cores 1,2,4,8,16
//
// The -scale flag divides every dataset's vertex and edge counts
// (preserving average degree); -scale 1 reproduces the paper's full sizes
// and will take hours and tens of GB.
//
// Perf mode (selected by any of -perf, -bench-out, -compare) skips the
// figure experiments and instead runs a short steady-state sweep over the
// batch-update hot paths:
//
//	gtbench -perf                              # print the sweep
//	gtbench -bench-out BENCH.json              # write machine-readable JSON
//	gtbench -bench-out /tmp/now.json -compare BENCH_6.json -tolerance 10
//
// -compare exits non-zero if any probe's allocs/op or B/op regresses past
// the baseline by more than -tolerance percent (wall-clock ns/op is gated
// only with -compare-ns, since it is hardware-dependent), or if the
// concurrent-read probe's latency percentiles blow past the baseline by
// more than -lat-tolerance percent plus a fixed absolute slack.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"graphtinker/internal/bench"
	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		listFlag   = flag.Bool("list", false, "list available experiments and exit")
		scale      = flag.Int("scale", 256, "dataset scale divisor, rounded up to a power of two (1 = full paper size, 100 runs at 1/128)")
		batches    = flag.Int("batches", 10, "update batches per workload")
		threshold  = flag.Float64("threshold", 0, "hybrid inference-box threshold (0 = paper's 0.02)")
		cores      = flag.String("cores", "1,2,4,8", "core counts for fig10")
		pws        = flag.String("pagewidths", "16,32,64,128,256", "PAGEWIDTH sweep for fig17/fig18")
		pws19      = flag.String("fig19pagewidths", "8,16,32,64,128,256", "PAGEWIDTH sweep for fig19")
		roots      = flag.Int("roots", 20, "high-degree roots rotated through in fig19")
		repeats    = flag.Int("repeats", 1, "best-of-N repetition for timed analytics figures")
		format     = flag.String("format", "table", "output format: table | csv")
		metricsOut = flag.String("metrics-out", "", "write update-path histograms and per-iteration engine traces to this JSON file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")

		perfFlag   = flag.Bool("perf", false, "run the steady-state perf sweep instead of the figure experiments")
		benchOut   = flag.String("bench-out", "", "write the perf sweep as JSON to this file (implies -perf)")
		compare    = flag.String("compare", "", "comma-separated baseline perf JSON files to gate against (implies -perf); exits 1 on regression")
		tolerance  = flag.Float64("tolerance", 10, "allowed regression over the -compare baseline, in percent")
		latTol     = flag.Float64("lat-tolerance", 400, "allowed read-latency percentile regression over the -compare baseline, in percent (negative disables)")
		compareNs  = flag.Bool("compare-ns", false, "also gate wall-clock ns/op in -compare (hardware-dependent)")
		perfEdges  = flag.Int("perf-edges", 4096, "edges per batch in the perf sweep")
		perfShards = flag.Int("perf-shards", 4, "shard count for the perf sweep's parallel probes")
		perfTime   = flag.Duration("perf-time", 200*time.Millisecond, "minimum measurement time per perf probe")
		perfRepr   = flag.String("repr", "", "edge-container representation for the perf sweep: adaptive|blocks (default adaptive)")
	)
	flag.Parse()

	if *perfFlag || *benchOut != "" || *compare != "" {
		repr, err := core.ParseRepresentation(*perfRepr)
		if err != nil {
			fatal("-repr: %v", err)
		}
		runPerf(bench.PerfOptions{
			EdgesPerOp: *perfEdges,
			Shards:     *perfShards,
			MinTime:    *perfTime,
			Repr:       repr,
		}, *benchOut, *compare, bench.CompareOptions{
			TolerancePct:        *tolerance,
			CompareNs:           *compareNs,
			LatencyTolerancePct: *latTol,
		})
		return
	}
	if *format != "table" && *format != "csv" {
		fatal("unknown -format %q (table or csv)", *format)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal("-cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal("-memprofile: %v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				_ = f.Close()
				fatal("-memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				fatal("-memprofile: %v", err)
			}
		}()
	}

	if *listFlag {
		for _, e := range bench.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Paper)
		}
		return
	}

	opts := bench.DefaultOptions()
	opts.ScaleDivisor = *scale
	opts.Batches = *batches
	opts.Threshold = *threshold
	opts.Roots = *roots
	opts.Repeats = *repeats
	if *metricsOut != "" {
		opts.Collector = bench.NewCollector()
	}
	var err error
	if opts.Cores, err = parseInts(*cores); err != nil {
		fatal("bad -cores: %v", err)
	}
	if opts.PageWidths, err = parseInts(*pws); err != nil {
		fatal("bad -pagewidths: %v", err)
	}
	if opts.Fig19PageWidths, err = parseInts(*pws19); err != nil {
		fatal("bad -fig19pagewidths: %v", err)
	}

	var selected []bench.Experiment
	switch *expFlag {
	case "all":
		selected = bench.Registry()
	case "paper":
		for _, e := range bench.Registry() {
			if !strings.HasPrefix(e.ID, "ext-") {
				selected = append(selected, e)
			}
		}
	case "extensions":
		for _, e := range bench.Registry() {
			if strings.HasPrefix(e.ID, "ext-") {
				selected = append(selected, e)
			}
		}
	default:
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal("%v", err)
			}
			selected = append(selected, e)
		}
	}

	if *format == "table" {
		fmt.Printf("gtbench: scale 1/%d, %d batches per workload\n\n", datasets.RoundDivisor(opts.ScaleDivisor), opts.Batches)
	}
	for _, e := range selected {
		start := time.Now()
		tb, err := e.Run(opts)
		if err != nil {
			fatal("%s: %v", e.ID, err)
		}
		switch *format {
		case "csv":
			fmt.Printf("# %s: %s\n%s\n", tb.ID, tb.Title, tb.CSV())
		default:
			fmt.Print(tb.Format())
			fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
	}

	if *metricsOut != "" {
		raw, err := json.MarshalIndent(opts.Collector.Snapshot(), "", "  ")
		if err != nil {
			fatal("-metrics-out: %v", err)
		}
		if err := os.WriteFile(*metricsOut, append(raw, '\n'), 0o644); err != nil {
			fatal("-metrics-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "gtbench: metrics written to %s\n", *metricsOut)
	}
}

// runPerf executes the steady-state sweep, optionally persists it, and
// optionally gates it against a committed baseline.
func runPerf(opts bench.PerfOptions, outPath, comparePath string, cmp bench.CompareOptions) {
	rep, err := bench.RunPerfSweep(opts)
	if err != nil {
		fatal("perf sweep: %v", err)
	}

	fmt.Printf("gtbench perf sweep (%d edges/op, %d shards, %s)\n",
		rep.EdgesPerOp, rep.Shards, rep.GoVersion)
	fmt.Printf("%-24s %12s %12s %12s %14s\n", "probe", "ns/op", "allocs/op", "B/op", "edges/sec")
	for _, r := range rep.Results {
		fmt.Printf("%-24s %12.0f %12.2f %12.0f %14.3g\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.EdgesPerSec)
		if r.ReadLatency != nil {
			fmt.Printf("%-24s %12s p50=%.0fns p99=%.0fns p999=%.0fns (%d samples under writer churn)\n",
				"", "", r.ReadP50Ns, r.ReadP99Ns, r.ReadP999Ns, r.ReadLatency.Count)
		}
		if r.MBPerSec > 0 || r.SpeedupX > 0 {
			fmt.Printf("%-24s %12s", "", "")
			if r.MBPerSec > 0 {
				fmt.Printf(" %.1f MB/s", r.MBPerSec)
			}
			if r.SpeedupX > 0 {
				fmt.Printf(" %.2fx vs sequential", r.SpeedupX)
			}
			fmt.Println()
		}
	}

	if outPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("-bench-out: %v", err)
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			fatal("-bench-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "gtbench: perf report written to %s\n", outPath)
	}

	// -compare accepts several comma-separated baselines; each gates only
	// the probes it records, so a focused baseline (e.g. recovery-only)
	// composes with the main sweep's without either overriding the other.
	failed := false
	for _, comparePath := range strings.Split(comparePath, ",") {
		comparePath = strings.TrimSpace(comparePath)
		if comparePath == "" {
			continue
		}
		raw, err := os.ReadFile(comparePath)
		if err != nil {
			fatal("-compare: %v", err)
		}
		var baseline bench.PerfReport
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fatal("-compare: %s: %v", comparePath, err)
		}
		if baseline.Schema != bench.PerfSchema {
			fatal("-compare: %s: schema %q, want %q", comparePath, baseline.Schema, bench.PerfSchema)
		}
		regs := bench.ComparePerf(baseline, rep, cmp)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "gtbench: REGRESSION %s\n", r)
			}
			failed = true
			continue
		}
		fmt.Printf("compare: within +%g%% of %s\n", cmp.TolerancePct, comparePath)
	}
	if failed {
		os.Exit(1)
	}
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gtbench: "+format+"\n", args...)
	os.Exit(1)
}
