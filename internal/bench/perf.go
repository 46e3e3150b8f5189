package bench

// perf.go is the steady-state performance sweep behind gtbench's
// -perf / -bench-out / -compare flags: a small set of allocation- and
// throughput-sensitive probes over the batch-update hot paths, measured
// with a self-calibrating harness and emitted as machine-readable JSON so
// a committed baseline (BENCH_*.json at the repo root) can gate future
// changes.
//
// Each probe runs one op — typically "stage and apply one batch" — in a
// steady state: stores are prefilled with the batch they re-apply, so the
// structure neither grows nor rehashes and what's measured is the staging
// layer the paper's update-throughput claims ride on. Allocation counts
// are machine-independent, which is what makes cross-machine regression
// gating sound; wall-clock ns/op is recorded for trajectory tracking but
// only compared when explicitly requested. The concurrent-read probe adds
// a third metric class: read-latency tail percentiles sampled while a
// writer churns, gated under a deliberately wide envelope — wide enough
// to absorb scheduler noise, tight enough to catch reads convoying behind
// writers again (see ComparePerf).

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/ingest"
	"graphtinker/internal/metrics"
	"graphtinker/internal/wal"
)

// PerfSchema identifies the JSON layout written by -bench-out.
const PerfSchema = "gtbench-perf/v1"

// PerfOptions sizes the sweep; zero values select the defaults.
type PerfOptions struct {
	// EdgesPerOp is the batch size each probe applies per op (default 4096).
	EdgesPerOp int
	// Shards is the sharded-store width (default 4).
	Shards int
	// MinTime is the per-probe measurement floor (default 200ms) — the
	// probe loops whole ops until at least this much time has elapsed.
	MinTime time.Duration
	// MaxOps caps a probe's iterations regardless of MinTime (default 1M).
	MaxOps int
	// Repr selects the per-vertex edge-container representation the probes
	// run under (default core.ReprAdaptive) — the gtbench -repr flag, for
	// A/B sweeps of the formats against the committed baseline.
	Repr core.Representation
}

// config is the store configuration every probe uses.
func (o PerfOptions) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Repr = o.Repr
	return cfg
}

func (o PerfOptions) withDefaults() PerfOptions {
	if o.EdgesPerOp <= 0 {
		o.EdgesPerOp = 4096
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.MinTime <= 0 {
		o.MinTime = 200 * time.Millisecond
	}
	if o.MaxOps <= 0 {
		o.MaxOps = 1 << 20
	}
	return o
}

// PerfResult is one probe's measurement. The Read* fields are populated
// only by probes that sample read-path latency under concurrent writers
// (parallel/concurrent-read): tail percentiles estimated from a
// metrics.Histogram over per-lookup wall times, plus the full histogram
// snapshot so CI can archive the whole distribution, not just three
// points of it.
type PerfResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	EdgesPerOp  int     `json:"edges_per_op"`
	EdgesPerSec float64 `json:"edges_per_sec"`

	ReadP50Ns   float64                    `json:"read_p50_ns,omitempty"`
	ReadP99Ns   float64                    `json:"read_p99_ns,omitempty"`
	ReadP999Ns  float64                    `json:"read_p999_ns,omitempty"`
	ReadLatency *metrics.HistogramSnapshot `json:"read_latency_ns,omitempty"`

	// MBPerSec and SpeedupX are set by the recovery probes. MB/s is the
	// probe's byte volume over its wall time — recorded for trajectory
	// tracking, never gated (hardware-dependent). SpeedupX is the parallel
	// path's ratio over its own sequential oracle, measured in the same
	// process on the same machine — self-relative, so it IS gated.
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	SpeedupX float64 `json:"speedup_x,omitempty"`
}

// PerfReport is the full sweep: what -bench-out writes and -compare reads.
type PerfReport struct {
	Schema     string       `json:"schema"`
	EdgesPerOp int          `json:"edges_per_op"`
	Shards     int          `json:"shards"`
	GoVersion  string       `json:"go_version"`
	Repr       string       `json:"repr,omitempty"`
	Results    []PerfResult `json:"results"`
}

// Result returns the named probe's measurement.
func (r PerfReport) Result(name string) (PerfResult, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return PerfResult{}, false
}

// perfRand is a xorshift64 generator — deterministic probe inputs without
// importing the dataset packages.
type perfRand struct{ s uint64 }

func (r *perfRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// perfEdges synthesizes a skewed edge stream matching the benchmark suite's
// shape (sources squared toward low ids).
func perfEdges(n int, vertices uint64, seed uint64) []core.Edge {
	r := &perfRand{s: seed}
	out := make([]core.Edge, n)
	for i := range out {
		u := r.next() % vertices
		out[i] = core.Edge{Src: (u * u) % vertices, Dst: r.next() % vertices, Weight: 1}
	}
	return out
}

// measureOp runs op in growing chunks until MinTime elapses (or MaxOps),
// bracketing the loop with memory-stats reads: ns/op from wall time,
// allocs/op and B/op from the runtime's allocation counters (covering
// every goroutine the op fans out to). A short warmup first lets reusable
// buffers reach their steady-state high-water mark — growth allocations
// are the thing the steady-state probes deliberately exclude.
func measureOp(o PerfOptions, edgesPerOp int, op func()) PerfResult {
	for i := 0; i < 4; i++ {
		op()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops := 0
	chunk := 1
	for time.Since(start) < o.MinTime && ops < o.MaxOps {
		for i := 0; i < chunk && ops+i < o.MaxOps; i++ {
			op()
		}
		if ops+chunk > o.MaxOps {
			chunk = o.MaxOps - ops
		}
		ops += chunk
		if chunk < 1024 {
			chunk *= 2
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	res := PerfResult{
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		EdgesPerOp:  edgesPerOp,
	}
	if elapsed > 0 {
		res.EdgesPerSec = float64(uint64(ops)*uint64(edgesPerOp)) / elapsed.Seconds()
	}
	return res
}

// RunPerfSweep executes every probe and returns the report. The sweep is
// deliberately short (MinTime per probe) so CI can run it on every push.
func RunPerfSweep(o PerfOptions) (PerfReport, error) {
	o = o.withDefaults()
	rep := PerfReport{
		Schema:     PerfSchema,
		EdgesPerOp: o.EdgesPerOp,
		Shards:     o.Shards,
		GoVersion:  runtime.Version(),
		Repr:       o.Repr.String(),
	}
	vertices := uint64(4 * o.EdgesPerOp)

	// core/insert-steady: the single-instance update path — every op
	// re-applies the same batch, so each edge is a weight update.
	{
		edges := perfEdges(o.EdgesPerOp, vertices, 21)
		g := core.MustNew(o.config())
		g.InsertBatch(edges)
		res := measureOp(o, o.EdgesPerOp, func() { g.InsertBatch(edges) })
		res.Name = "core/insert-steady"
		rep.Results = append(rep.Results, res)
	}

	// parallel/insert-steady: the sharded batch path, its shards one
	// round on the apply helper pool.
	{
		edges := perfEdges(o.EdgesPerOp, vertices, 23)
		p, err := core.NewParallel(o.config(), o.Shards)
		if err != nil {
			return rep, err
		}
		p.InsertBatch(edges)
		res := measureOp(o, o.EdgesPerOp, func() { p.InsertBatch(edges) })
		res.Name = "parallel/insert-steady"
		rep.Results = append(rep.Results, res)
	}

	// parallel/insert-delete: both fan-out paths; the live set returns to
	// its prefill state every op.
	{
		base := perfEdges(o.EdgesPerOp, vertices, 25)
		churn := perfEdges(o.EdgesPerOp/2, vertices, 27)
		p, err := core.NewParallel(o.config(), o.Shards)
		if err != nil {
			return rep, err
		}
		p.InsertBatch(base)
		res := measureOp(o, len(churn)*2, func() {
			p.InsertBatch(churn)
			p.DeleteBatch(churn)
		})
		res.Name = "parallel/insert-delete"
		rep.Results = append(rep.Results, res)
	}

	// parallel/concurrent-read: the seqlock read path. Two phases over one
	// store: a quiet phase with no writer measures the deterministic
	// allocation cost of a lookup pass (gated like every other probe), then
	// a contended phase samples per-lookup latency into a histogram while a
	// writer churns insert/delete batches — the read tail that used to sit
	// behind the per-shard RWMutex writer convoy. One "op" is a pass over a
	// fixed probe set so allocs/op is exactly per-pass.
	{
		edges := perfEdges(o.EdgesPerOp, vertices, 33)
		probes := edges
		if len(probes) > 512 {
			probes = probes[:512]
		}
		p, err := core.NewParallel(o.config(), o.Shards)
		if err != nil {
			return rep, err
		}
		p.InsertBatch(edges)

		res := measureOp(o, len(probes), func() {
			for _, e := range probes {
				p.FindEdge(e.Src, e.Dst)
			}
		})

		hist := metrics.NewHistogram(metrics.LatencyBounds())
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn := perfEdges(o.EdgesPerOp/2, vertices, 35)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.InsertBatch(churn)
				p.DeleteBatch(churn)
			}
		}()
		deadline := time.Now().Add(o.MinTime)
		for i := 0; time.Now().Before(deadline); i++ {
			e := probes[i%len(probes)]
			t0 := time.Now()
			p.FindEdge(e.Src, e.Dst)
			hist.ObserveDuration(time.Since(t0))
		}
		close(stop)
		wg.Wait()

		snap := hist.Snapshot()
		res.ReadP50Ns = float64(snap.Quantile(0.50))
		res.ReadP99Ns = float64(snap.Quantile(0.99))
		res.ReadP999Ns = float64(snap.Quantile(0.999))
		res.ReadLatency = &snap
		res.Name = "parallel/concurrent-read"
		rep.Results = append(rep.Results, res)
	}

	// ingest/push-flush: the streaming pipeline hot path — coalesce,
	// apply each flush through ApplyOps, drain to the read-your-writes
	// barrier.
	{
		edges := perfEdges(o.EdgesPerOp, vertices, 29)
		ops := make([]ingest.Update, len(edges))
		for i, e := range edges {
			ops[i] = ingest.Insert(e.Src, e.Dst, e.Weight)
		}
		p, err := core.NewParallel(o.config(), o.Shards)
		if err != nil {
			return rep, err
		}
		pipe, err := ingest.New(p, ingest.Options{
			MaxBatch:      len(ops),
			FlushInterval: -1,
			MaxPending:    8 * len(ops),
		})
		if err != nil {
			return rep, err
		}
		if err := pipe.PushBatch(ops); err != nil {
			return rep, err
		}
		pipe.Flush()
		res := measureOp(o, len(ops), func() {
			if err := pipe.PushBatch(ops); err != nil {
				panic(err)
			}
			pipe.Flush()
		})
		if _, err := pipe.Close(); err != nil {
			return rep, fmt.Errorf("bench: perf: pipeline close: %w", err)
		}
		res.Name = "ingest/push-flush"
		rep.Results = append(rep.Results, res)
	}

	// wal/append: buffered record encode+write with group commit deferred;
	// pruning inside the loop keeps the on-disk footprint bounded.
	{
		dir, err := os.MkdirTemp("", "gtbench-wal-")
		if err != nil {
			return rep, fmt.Errorf("bench: perf: %w", err)
		}
		defer os.RemoveAll(dir)
		l, err := wal.Open(dir, wal.Options{SyncInterval: -1})
		if err != nil {
			return rep, err
		}
		edges := perfEdges(512, vertices, 31)
		ops := make([]core.EdgeOp, len(edges))
		for i, e := range edges {
			ops[i] = core.InsertOp(e.Src, e.Dst, e.Weight)
		}
		appends := 0
		res := measureOp(o, len(ops), func() {
			lsn, err := l.Append(ops)
			if err != nil {
				panic(err)
			}
			appends++
			if appends%4096 == 0 {
				if _, err := l.Prune(lsn); err != nil {
					panic(err)
				}
			}
		})
		if err := l.Close(); err != nil {
			return rep, fmt.Errorf("bench: perf: wal close: %w", err)
		}
		res.Name = "wal/append"
		rep.Results = append(rep.Results, res)
	}

	// recovery/*: snapshot write/load bandwidth, WAL replay throughput and
	// end-to-end reopen — the crash-recovery critical path (recovery.go).
	if err := appendRecoveryProbes(o, &rep); err != nil {
		return rep, err
	}

	return rep, nil
}

// PerfRegression is one probe metric outside the allowed envelope.
type PerfRegression struct {
	Name     string  `json:"name"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	LimitPct float64 `json:"limit_pct"`
}

func (r PerfRegression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: probe present in baseline but absent from this run", r.Name)
	}
	if r.Metric == "speedup-x" {
		return fmt.Sprintf("%s: parallel speedup fell %.3gx -> %.3gx (floor is %g%% of baseline)",
			r.Name, r.Baseline, r.Current, 100-r.LimitPct)
	}
	return fmt.Sprintf("%s: %s regressed %.4g -> %.4g (limit +%g%%)",
		r.Name, r.Metric, r.Baseline, r.Current, r.LimitPct)
}

// CompareOptions tunes ComparePerf's gates; zero values select defaults.
type CompareOptions struct {
	// TolerancePct is the relative envelope for the allocation metrics
	// (allocs/op, B/op). A zero tolerance gates on the absolute slacks
	// alone.
	TolerancePct float64
	// CompareNs also gates wall-clock ns/op within TolerancePct — opt-in,
	// for runs on hardware comparable to the baseline's.
	CompareNs bool
	// LatencyTolerancePct is the relative envelope for the read-latency
	// percentiles (default 400, i.e. 5x). Latency tails are far noisier
	// than allocation counts, but the regression this gate exists to catch
	// — a lookup stalling behind a writer convoy — moves the p99 from
	// microseconds to whole batch-apply times, orders of magnitude past
	// any scheduler noise. Negative disables the latency gate.
	LatencyTolerancePct float64
	// LatencySlackNs is the absolute slack added to every latency gate
	// (default 250µs): CI machines are slow and shared, so sub-slack
	// percentile wobble never trips the gate.
	LatencySlackNs float64
}

func (c CompareOptions) withDefaults() CompareOptions {
	if c.LatencyTolerancePct == 0 {
		c.LatencyTolerancePct = 400
	}
	if c.LatencySlackNs <= 0 {
		c.LatencySlackNs = 250_000
	}
	return c
}

// exceeds reports whether cur regresses past base under a relative scale
// plus an absolute slack. A zero baseline gates on the absolute slack
// alone: relative tolerance of zero is degenerate (any regression divides
// into an infinite ratio, and 0*scale would let a 0 -> 1 alloc regression
// through a pure percentage gate — the bug this helper replaces).
func exceeds(base, cur, scale, slack float64) bool {
	if base == 0 {
		return cur > slack
	}
	return cur > base*scale+slack
}

// ComparePerf checks a sweep against a baseline. Allocation metrics
// (allocs/op, B/op) are compared within opts.TolerancePct — they are
// deterministic across machines, so a committed baseline gates them in
// CI. Wall-clock ns/op is compared only when opts.CompareNs is set.
// Read-latency percentiles (the concurrent-read probe's p50/p99/p999) are
// gated whenever the baseline records them, under the wider latency
// envelope — see CompareOptions. Small absolute slacks (half an alloc,
// 64 bytes, LatencySlackNs) keep measurement rounding from tripping
// zero-valued or near-zero baselines; zero baselines gate on the slack
// alone. Probes present in the baseline but missing from the run are
// regressions, as is a baseline-recorded latency metric the run dropped;
// new probes absent from the baseline pass silently (they gate the next
// baseline refresh instead).
func ComparePerf(baseline, current PerfReport, opts CompareOptions) []PerfRegression {
	opts = opts.withDefaults()
	var regs []PerfRegression
	scale := 1 + opts.TolerancePct/100
	latScale := 1 + opts.LatencyTolerancePct/100
	for _, base := range baseline.Results {
		cur, ok := current.Result(base.Name)
		if !ok {
			regs = append(regs, PerfRegression{Name: base.Name, Metric: "missing"})
			continue
		}
		if exceeds(base.AllocsPerOp, cur.AllocsPerOp, scale, 0.5) {
			regs = append(regs, PerfRegression{
				Name: base.Name, Metric: "allocs/op",
				Baseline: base.AllocsPerOp, Current: cur.AllocsPerOp, LimitPct: opts.TolerancePct,
			})
		}
		if exceeds(base.BytesPerOp, cur.BytesPerOp, scale, 64) {
			regs = append(regs, PerfRegression{
				Name: base.Name, Metric: "B/op",
				Baseline: base.BytesPerOp, Current: cur.BytesPerOp, LimitPct: opts.TolerancePct,
			})
		}
		// SpeedupX is self-relative — both sides of the ratio ran on the
		// same machine in the same process — so unlike raw wall-clock it is
		// gated from a committed baseline. The envelope is deliberately
		// loose (the ratio may fall to 45% of the baseline's) because
		// low-core CI machines compress a parallel speedup toward 1 without
		// eliminating it; what the gate exists to catch is the ratio
		// collapsing outright — the parallel path no longer paying for
		// itself.
		if base.SpeedupX > 0 && (cur.SpeedupX <= 0 || cur.SpeedupX < base.SpeedupX*0.45) {
			regs = append(regs, PerfRegression{
				Name: base.Name, Metric: "speedup-x",
				Baseline: base.SpeedupX, Current: cur.SpeedupX, LimitPct: 55,
			})
		}
		if opts.CompareNs && exceeds(base.NsPerOp, cur.NsPerOp, scale, 0) {
			regs = append(regs, PerfRegression{
				Name: base.Name, Metric: "ns/op",
				Baseline: base.NsPerOp, Current: cur.NsPerOp, LimitPct: opts.TolerancePct,
			})
		}
		if opts.LatencyTolerancePct >= 0 {
			for _, m := range []struct {
				metric    string
				base, cur float64
			}{
				{"read-p50", base.ReadP50Ns, cur.ReadP50Ns},
				{"read-p99", base.ReadP99Ns, cur.ReadP99Ns},
				{"read-p999", base.ReadP999Ns, cur.ReadP999Ns},
			} {
				if m.base <= 0 {
					continue // baseline never recorded this percentile
				}
				if m.cur <= 0 {
					// The run stopped recording a latency the baseline
					// gates — treat like a vanished probe, not a pass.
					regs = append(regs, PerfRegression{
						Name: base.Name, Metric: m.metric + " missing",
						Baseline: m.base, Current: 0, LimitPct: opts.LatencyTolerancePct,
					})
					continue
				}
				if exceeds(m.base, m.cur, latScale, opts.LatencySlackNs) {
					regs = append(regs, PerfRegression{
						Name: base.Name, Metric: m.metric,
						Baseline: m.base, Current: m.cur, LimitPct: opts.LatencyTolerancePct,
					})
				}
			}
		}
	}
	return regs
}
