package bench

import (
	"fmt"
	"time"

	"graphtinker/internal/algorithms"
	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/engine"
	"graphtinker/internal/metrics"
	"graphtinker/internal/rmat"
	"graphtinker/internal/stinger"
)

// Options scales the experiments. The defaults keep every driver a few
// seconds on a laptop; divisor 1 reproduces the paper's full dataset sizes.
type Options struct {
	// ScaleDivisor divides every dataset's vertex and edge counts by the
	// power of two at or above it, preserving average degree (100 runs at
	// 1/128; see datasets.ScaledParams). 1 = full paper scale.
	ScaleDivisor int
	// Batches is the number of update batches per workload (the paper uses
	// 1M-edge batches; scaled runs keep the batch *count* comparable).
	Batches int
	// Threshold overrides the hybrid inference-box threshold (0 = 0.02).
	Threshold float64
	// Cores are the shard counts of the Fig. 10 sweep.
	Cores []int
	// PageWidths are the Fig. 17/18 sweep values.
	PageWidths []int
	// Fig19PageWidths are the Fig. 19 sweep values (the paper uses 8..256).
	Fig19PageWidths []int
	// Ratios are the update:analytics ratios of the Fig. 19 grid.
	Ratios []Ratio
	// Roots is how many high-degree root vertices Fig. 19 rotates through
	// (the paper pre-collects 20).
	Roots int
	// Repeats runs each timed analytics workload this many times and keeps
	// the best (shortest-time) run — the standard defence against shared-
	// machine timing noise. 0 or 1 = single run.
	Repeats int
	// Collector, when non-nil, samples update-path latency/probe histograms
	// during the timed drivers and captures every engine workload's
	// per-iteration trace (the -metrics-out artifact).
	Collector *Collector
}

// Ratio is an update:analytics ratio (Fig. 19).
type Ratio struct{ Updates, Analytics int }

func (r Ratio) String() string { return fmt.Sprintf("%d:%d", r.Updates, r.Analytics) }

// DefaultOptions returns laptop-sized defaults.
func DefaultOptions() Options {
	return Options{
		ScaleDivisor:    256,
		Batches:         10,
		Cores:           []int{1, 2, 4, 8},
		PageWidths:      []int{16, 32, 64, 128, 256},
		Fig19PageWidths: []int{8, 16, 32, 64, 128, 256},
		Ratios: []Ratio{
			{1, 10}, {1, 4}, {1, 1}, {4, 1}, {10, 1},
		},
		Roots: 20,
	}
}

// QuickOptions returns the tiny configuration the test suite uses.
func QuickOptions() Options {
	o := DefaultOptions()
	o.ScaleDivisor = 4096
	o.Batches = 4
	o.Cores = []int{1, 2}
	o.PageWidths = []int{16, 64}
	o.Fig19PageWidths = []int{8, 64}
	o.Ratios = []Ratio{{1, 2}, {2, 1}}
	o.Roots = 5
	return o
}

// materialize loads a dataset's batches at the harness scale, converted to
// core edges, splitting into opts.Batches batches.
func (o Options) materialize(d datasets.Dataset) ([][]core.Edge, error) {
	p, err := d.ScaledParams(o.ScaleDivisor)
	if err != nil {
		return nil, err
	}
	total := int(p.NumEdges)
	if d.Symmetric {
		total *= 2
	}
	batchSize := total / o.Batches
	if batchSize < 1 {
		batchSize = 1
	}
	raw, err := d.Materialize(o.ScaleDivisor, batchSize)
	if err != nil {
		return nil, err
	}
	// A tiny trailing remainder would pollute per-batch throughput stats
	// (its timing is pure noise); fold it into the previous batch.
	if n := len(raw); n >= 2 && len(raw[n-1]) < batchSize/2 {
		raw[n-2] = append(raw[n-2], raw[n-1]...)
		raw = raw[:n-1]
	}
	out := make([][]core.Edge, len(raw))
	for i, b := range raw {
		out[i] = toCore(b)
	}
	return out, nil
}

func toCore(batch []rmat.Edge) []core.Edge {
	out := make([]core.Edge, len(batch))
	for i, e := range batch {
		out[i] = core.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
	}
	return out
}

func toStinger(batch []core.Edge) []stinger.Edge {
	out := make([]stinger.Edge, len(batch))
	for i, e := range batch {
		out[i] = stinger.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
	}
	return out
}

// updatable is the mutation surface the update-throughput drivers need;
// satisfied by adapters over GraphTinker, STINGER and their Parallel
// wrappers. instrument attaches (or, with nil, detaches) an update-path
// recorder so timed sections can be sampled.
type updatable interface {
	InsertBatch([]core.Edge) int
	DeleteBatch([]core.Edge) int
	NumEdges() uint64
	instrument(*metrics.UpdateRecorder)
}

// gtStore / stStore / gtParStore / stParStore adapt the four structures to
// the common mutation surface.
type gtStore struct{ g *core.GraphTinker }

func (s gtStore) InsertBatch(b []core.Edge) int        { return s.g.InsertBatch(b) }
func (s gtStore) DeleteBatch(b []core.Edge) int        { return s.g.DeleteBatch(b) }
func (s gtStore) NumEdges() uint64                     { return s.g.NumEdges() }
func (s gtStore) instrument(r *metrics.UpdateRecorder) { s.g.Instrument(r) }

type stStore struct{ s *stinger.Stinger }

func (s stStore) InsertBatch(b []core.Edge) int        { return s.s.InsertBatch(toStinger(b)) }
func (s stStore) DeleteBatch(b []core.Edge) int        { return s.s.DeleteBatch(toStinger(b)) }
func (s stStore) NumEdges() uint64                     { return s.s.NumEdges() }
func (s stStore) instrument(r *metrics.UpdateRecorder) { s.s.Instrument(r) }

type gtParStore struct{ p *core.Parallel }

func (s gtParStore) InsertBatch(b []core.Edge) int        { return s.p.InsertBatch(b) }
func (s gtParStore) DeleteBatch(b []core.Edge) int        { return s.p.DeleteBatch(b) }
func (s gtParStore) NumEdges() uint64                     { return s.p.NumEdges() }
func (s gtParStore) instrument(r *metrics.UpdateRecorder) { s.p.Instrument(r) }

type stParStore struct{ p *stinger.Parallel }

func (s stParStore) InsertBatch(b []core.Edge) int        { return s.p.InsertBatch(toStinger(b)) }
func (s stParStore) DeleteBatch(b []core.Edge) int        { return s.p.DeleteBatch(toStinger(b)) }
func (s stParStore) NumEdges() uint64                     { return s.p.NumEdges() }
func (s stParStore) instrument(r *metrics.UpdateRecorder) { s.p.Instrument(r) }

// BatchTiming is one batch's measured update throughput.
type BatchTiming struct {
	Batch   int
	Edges   int
	Seconds float64
}

// MEPS is the batch throughput in million edges per second.
func (b BatchTiming) MEPS() float64 { return meps(uint64(b.Edges), b.Seconds) }

// insertTimed loads batches into a store, timing each one. When o carries a
// Collector, the store samples latency/probe histograms for the duration.
func insertTimed(o Options, store updatable, batches [][]core.Edge) []BatchTiming {
	if rec := o.Collector.recorder(); rec != nil {
		store.instrument(rec)
		defer store.instrument(nil)
	}
	out := make([]BatchTiming, 0, len(batches))
	for i, b := range batches {
		start := time.Now()
		store.InsertBatch(b)
		out = append(out, BatchTiming{Batch: i, Edges: len(b), Seconds: time.Since(start).Seconds()})
	}
	return out
}

// deleteTimed removes batches from a store, timing each one.
func deleteTimed(o Options, store updatable, batches [][]core.Edge) []BatchTiming {
	if rec := o.Collector.recorder(); rec != nil {
		store.instrument(rec)
		defer store.instrument(nil)
	}
	out := make([]BatchTiming, 0, len(batches))
	for i, b := range batches {
		start := time.Now()
		store.DeleteBatch(b)
		out = append(out, BatchTiming{Batch: i, Edges: len(b), Seconds: time.Since(start).Seconds()})
	}
	return out
}

// totalMEPS aggregates batch timings into one throughput number.
func totalMEPS(ts []BatchTiming) float64 {
	var edges uint64
	var secs float64
	for _, t := range ts {
		edges += uint64(t.Edges)
		secs += t.Seconds
	}
	return meps(edges, secs)
}

// degradation is the relative throughput drop between two batches
// (the paper quotes fifth-vs-last for Fig. 8).
func degradation(ts []BatchTiming, fromIdx, toIdx int) float64 {
	if fromIdx < 0 || toIdx >= len(ts) || fromIdx >= toIdx {
		return 0
	}
	from, to := ts[fromIdx].MEPS(), ts[toIdx].MEPS()
	if from <= 0 {
		return 0
	}
	return (from - to) / from
}

// pickRoot returns the highest-out-degree vertex of a batched edge stream
// (the analytics root).
func pickRoot(batches [][]core.Edge) uint64 {
	deg := make(map[uint64]int)
	for _, b := range batches {
		for _, e := range b {
			deg[e.Src]++
		}
	}
	var best uint64
	bestDeg := -1
	for v, d := range deg {
		if d > bestDeg || (d == bestDeg && v < best) {
			best, bestDeg = v, d
		}
	}
	return best
}

// flatten concatenates batches.
func flatten(batches [][]core.Edge) []core.Edge {
	var n int
	for _, b := range batches {
		n += len(b)
	}
	out := make([]core.Edge, 0, n)
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// program builds the vertex program for an algorithm name.
func program(alg string, root uint64) (engine.Program, error) {
	switch alg {
	case "bfs":
		return algorithms.BFS(root), nil
	case "sssp":
		return algorithms.SSSP(root), nil
	case "cc":
		return algorithms.CC(), nil
	default:
		return engine.Program{}, fmt.Errorf("bench: unknown algorithm %q", alg)
	}
}

// gtConfig returns the paper's GraphTinker configuration, adjusted. It pins
// ReprBlocks and turns the CAL on, so the figures and ablations measure the
// edgeblock tree and mirror the paper describes rather than the adaptive,
// CAL-less default.
func gtConfig(mutate ...func(*core.Config)) core.Config {
	cfg := core.DefaultConfig()
	cfg.Repr = core.ReprBlocks
	cfg.EnableCAL = true
	for _, m := range mutate {
		m(&cfg)
	}
	return cfg
}

// workloadResult is the outcome of one insert-then-analyze workload. Work
// is the mode-independent work measure — the graph size processed after
// each batch, summed over batches — so throughputs are comparable across
// execution modes (edges-loaded per second would structurally favour
// full processing, which streams many edges cheaply).
type workloadResult struct {
	engine.RunResult
	Work uint64
}

// WorkMEPS is Work over total wall time, in million edges per second — the
// metric of the paper's Figs. 11-13/15/16.
func (w workloadResult) WorkMEPS() float64 {
	return meps(w.Work, w.Duration.Seconds())
}

// analyticsWorkload runs the Figs. 11-13 two-step loop: insert one batch,
// then run the algorithm on the current graph state, until the dataset is
// exhausted. It returns the merged run result plus the work measure. When o
// carries a Collector, the insert phases sample update-path histograms and
// the merged per-iteration trace is recorded under label.
func analyticsWorkload(o Options, label string, store engine.GraphStore, ins updatable,
	batches [][]core.Edge, prog engine.Program, mode engine.Mode) workloadResult {

	if rec := o.Collector.recorder(); rec != nil {
		ins.instrument(rec)
		defer ins.instrument(nil)
	}
	eng := engine.MustNew(store, prog, engine.Options{Mode: mode, Threshold: o.Threshold})
	total := workloadResult{RunResult: engine.RunResult{Algorithm: prog.Name, Mode: mode, Converged: true}}
	for _, b := range batches {
		ins.InsertBatch(b)
		res := eng.RunAfterBatch(b)
		total.Merge(res)
		total.Work += store.NumEdges()
	}
	o.Collector.recordRun(label, total.RunResult)
	return total
}

// bestOf runs a timed workload up to max(1, repeats) times and keeps the
// highest-throughput run, shielding figure rows from shared-machine timing
// noise. The workload constructor must build fresh state each call.
func bestOf(repeats int, run func() workloadResult) workloadResult {
	best := run()
	for i := 1; i < repeats; i++ {
		if r := run(); r.WorkMEPS() > best.WorkMEPS() {
			best = r
		}
	}
	return best
}
