// Command benchmark is the repository's one ruler: five named workloads
// over the public functions of every layer, end-to-end metrics measured
// with tracing off and reported at a reference memory speed (memclock.go),
// per-layer counters and a layer ladder measured by a separate traced run.
// BENCHMARK.json at the repository root declares what it emits; README.md
// in this directory says how to read it.
//
//	benchmark -workload stream-durable -seed 7 -seconds 10 -trace 0
//	benchmark -workload all -out run.json
//	benchmark -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//
// The last line of standard output is one JSON object per workload:
// {"correct","attempted","failed","metrics"}. A failed correctness check
// makes the exit code 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// report is the -out document: where the numbers were taken, then one
// result per workload.
type report struct {
	Schema  string       `json:"schema"`
	Header  header       `json:"header"`
	Results []*runResult `json:"results"`
}

const reportSchema = "graphtinker-benchmark/v1"

type header struct {
	NumCPU     int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	GitCommit  string     `json:"git_commit"`
	Seed       uint64     `json:"seed"`
	Size       string     `json:"size"`
	Seconds    float64    `json:"seconds"`
	Traced     bool       `json:"traced"`
	FsyncProbe fsyncProbe `json:"fsync_probe"`
}

// fsyncProbe says whose disk the latencies belong to: 50 4-KiB
// write+fsync pairs on the filesystem the WAL directories live on.
type fsyncProbe struct {
	N      int     `json:"n"`
	Bytes  int     `json:"bytes"`
	P50Us  float64 `json:"p50_us"`
	TailUs float64 `json:"tail_us"`
}

func probeFsync(dir string) (fsyncProbe, error) {
	const n, size = 50, 4096
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return fsyncProbe{}, err
	}
	defer os.Remove(f.Name())
	buf := make([]byte, size)
	us := make([]float64, 0, n)
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		if _, err = f.Write(buf); err == nil {
			err = f.Sync()
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fsyncProbe{}, fmt.Errorf("fsync probe: %w", err)
	}
	s := summarize(us)
	return fsyncProbe{N: n, Bytes: size, P50Us: s.P50, TailUs: s.Tail}, nil
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// contractLine is the driver's view of one workload's run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) contractLine() contractLine {
	defs, vals := endToEnd, r.EndToEnd
	if r.PerLayer != nil {
		defs, vals = perLayer, r.PerLayer
	}
	line := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = contractValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return line
}

func printTable(r *runResult) {
	vals := r.EndToEnd
	if r.PerLayer != nil {
		vals = r.PerLayer
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "== %s: %d rounds in %.1fs, input crc %08x, %d attempted, %d failed\n",
		r.Workload, r.Rounds, r.WallS, r.Checksum, r.Attempted, r.Failed)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %.6g\n", k, vals[k])
	}
	for _, k := range []string{"ack_ms", "visible_ms", "read_us"} {
		s := r.Samples[k]
		fmt.Fprintf(os.Stderr, "  raw samples %-12s n=%d p50=%.6g p%.4g=%.6g\n", k, s.N, s.P50, 100*s.TailQ, s.Tail)
	}
	if r.RawEndToEnd != nil {
		fmt.Fprintf(os.Stderr, "  memory slowdown in the update stage, per round: %.3g\n", r.PerRound["slowdown.update"])
	}
	for _, m := range r.Failures {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", m)
	}
	for _, m := range r.Warnings {
		fmt.Fprintf(os.Stderr, "  warning: %s\n", m)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// run executes the named workloads and returns the report. The scratch
// directory under cfg.workdir is removed on every path.
func run(names []string, cfg runConfig, spansPath string) (rep *report, err error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	cfg.workdir, err = os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(cfg.workdir); err == nil && rerr != nil {
			err = rerr
		}
	}()
	probe, err := probeFsync(cfg.workdir)
	if err != nil {
		return nil, err
	}
	rep = &report{Schema: reportSchema, Header: header{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: gitCommit(), Seed: cfg.seed, Size: cfg.size.name, Seconds: cfg.seconds,
		Traced: cfg.traced, FsyncProbe: probe,
	}}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	clk, err := newMemClock(cfg.size.clockBytes)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := clk.close(); err == nil {
			err = cerr
		}
	}()
	for _, name := range names {
		def, ok := findWorkload(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		res, err := runWorkload(def, cfg, tr, clk)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, res)
	}
	if tr != nil && spansPath != "" {
		if err := tr.writeFile(spansPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "start rounds while one more fits into this long, per workload")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing and recorders off; 1: per-layer metrics, spans, recorders and the ladder")
		size     = flag.String("size", "full", "full or smoke")
		out      = flag.String("out", "", "write the full report (header, metrics, sample counts) to this file")
		spans    = flag.String("spans", "", "traced run: write the span file here (default <workdir>/spans.jsonl)")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for WAL and snapshot files")
		compare  = flag.Bool("compare", false, "compare two sets of -out reports: -compare a.json[,a2.json...] b.json[,b2.json...]")
		manifest = flag.String("manifest", "BENCHMARK.json", "with -compare: the file the bounds are read from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two arguments, each one report file or a comma-separated list")
			os.Exit(2)
		}
		worse, err := compareReports(os.Stdout, *manifest, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	sz, err := sizeByName(*size)
	if err != nil || flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments:", err, flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	var names []string
	if *workload == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else {
		names = strings.Split(*workload, ",")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, size: sz, workdir: *workdir}
	if cfg.traced && *spans == "" {
		*spans = filepath.Join(*workdir, "spans.jsonl")
	}
	rep, err := run(names, cfg, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	for _, r := range rep.Results {
		printTable(r)
		line, merr := json.Marshal(r.contractLine())
		if merr != nil {
			err = merr
			break
		}
		fmt.Println(string(line))
		if r.Failed > 0 {
			err = errIncorrect
		}
	}
	if err != nil {
		if !errors.Is(err, errIncorrect) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}
