package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphtinker/internal/algorithms"
	"graphtinker/internal/core"
	"graphtinker/internal/engine"
)

// runConfig is one invocation's input.
type runConfig struct {
	seed    uint64
	seconds float64 // rounds are started while one more fits into this much time; at least minRounds are made
	traced  bool
	size    sizes
	workdir string // scratch directory for WAL and snapshot files
}

// minRounds is the fewest rounds a run makes, so that every reported
// median (setup_s above all) has at least three values under it.
const minRounds = 3

// tracedRoundShare is the share of a traced run's time its rounds get.
const tracedRoundShare = 0.6

// workload is one workload's per-run state. round does the workload's
// fixed amount of work once — set-up, update stage, read stage,
// analytics stage, heap measurement, recovery — and checks the outcome.
// Rounds of one run are identical by construction, so counts repeat and
// only times vary.
type workload interface {
	round(e *env) (*roundOut, error)
	// extras runs the traced run's isolated probes (ladder, STINGER
	// baseline, WAL alone); it fills layer values that no round produces.
	extras(e *env, layer map[string]float64) error
	// inputChecksum is the CRC of the op stream the rounds replay.
	inputChecksum() uint32
}

// env is what a round gets from the harness.
type env struct {
	cfg runConfig
	tr  *tracer   // nil on untraced rounds
	clk *memClock // ticked by the timing goroutine between a stage's calls
	dir string    // this round's scratch directory, removed after it
}

// roundOut is what one round measured. Scalar metrics are derived from
// the raw sums here so that every workload computes them the same way.
// Each stage's slow is the memory clock's slowdown while it ran.
type roundOut struct {
	setupS      float64 // input generation, opening stores and directories, connecting the follower
	preloadS    float64 // the part of set-up that fills a store
	preloadSlow float64

	updates    float64 // edge updates acknowledged at the workload's guarantee
	updateS    float64 // wall time of the update stage
	updateSlow float64
	// wallRate marks an update stage that follows a wall-clock schedule:
	// its rate is the schedule's and is reported as the wall clock read it.
	wallRate bool

	ackMs, visibleMs []float64 // per update batch
	readUs           []float64 // per read bundle
	bundles, readS   float64
	readSlow         float64

	analyticsEdges float64 // Σ live edges at each engine run
	analyticsS     float64 // Σ engine wall time
	analyticsSlow  float64

	heapBytes    float64 // HeapAlloc after forced GC minus the pre-store baseline
	heapEdges    float64 // live edges when it was taken
	recoveryS    float64
	recoverySlow float64

	attempted int
	fails     failLog
	warnings  []string

	layer map[string]float64 // per-layer values; filled on traced rounds
}

func newRoundOut() *roundOut {
	return &roundOut{preloadSlow: 1, updateSlow: 1, readSlow: 1, analyticsSlow: 1, recoverySlow: 1, layer: map[string]float64{}}
}

// checkLate records how late an open-loop generator sent its batches,
// counted from when it could have: the due time, or the return of the
// previous batch if the system held the generator beyond it (that wait
// is the system's and is in the latencies, which count from the due
// time). Later than one period of its schedule, the round's latencies
// are the generator's, not the system's: the run is invalid, which is a
// warning and not a failure of the program under test.
func (r *roundOut) checkLate(lateMs []float64, period time.Duration) {
	late := summarize(lateMs).Tail
	r.layer["gen.late_p99_ms"] = late
	if late > ms(period) {
		r.warnings = append(r.warnings, fmt.Sprintf("invalid, not slow: the load generator ran %.2fms late at its tail, one period is %.2fms", late, ms(period)))
	}
}

// stopwatch accumulates set-up time across the untimed work interleaved
// with it (the forced GCs of the heap baseline).
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.total += time.Since(s.t0) }

// heapInUse forces two collections (the second frees what the first's
// finalizers released) and returns the live heap.
func heapInUse() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// reader issues read bundles from one goroutine: bundleFinds FindEdge
// calls (half hits) plus one ForEachOutEdge over a high-degree vertex,
// every answer compared with the oracle's.
type reader struct {
	st        store
	o         *oracle
	traced    bool // also split each bundle's time into lookups and scan
	checkScan bool // false under churn, which moves the scanned vertex's degree

	samplesUs               []float64
	findNs, scanNs, scanned int64
	fails                   failLog
}

func (r *reader) bundle(i int) {
	nb := len(r.o.queries) / bundleFinds
	qs := r.o.queries[(i%nb)*bundleFinds : (i%nb+1)*bundleFinds]
	t0 := time.Now()
	bad := 0
	for _, q := range qs {
		if w, ok := r.st.FindEdge(q.src, q.dst); ok != q.hit || (ok && w != q.w) {
			bad++
		}
	}
	var t1 time.Time
	if r.traced {
		t1 = time.Now()
	}
	deg := uint32(0)
	r.st.ForEachOutEdge(r.o.scan, func(uint64, float32) bool { deg++; return true })
	t2 := time.Now()
	r.samplesUs = append(r.samplesUs, float64(t2.Sub(t0).Nanoseconds())/1e3)
	if r.traced {
		r.findNs += t1.Sub(t0).Nanoseconds()
		r.scanNs += t2.Sub(t1).Nanoseconds()
		r.scanned += int64(deg)
	}
	if bad > 0 {
		r.fails.addf("read bundle %d: %d of %d lookups wrong", i, bad, bundleFinds)
	}
	if deg == 0 || (r.checkScan && deg != r.o.scanDegree) {
		r.fails.addf("read bundle %d: scan of vertex %d saw %d edges, oracle %d", i, r.o.scan, deg, r.o.scanDegree)
	}
}

// bundleAndTick issues bundle i and, every tickEveryBundles-th time, ticks
// the memory clock from the goroutine that reads.
func (r *reader) bundleAndTick(i int, clk *memClock) {
	r.bundle(i)
	if i%tickEveryBundles == 0 {
		clk.tick()
	}
}

// tickEveryBundles spaces the memory clock's ticks between read bundles;
// a bundle takes about a third of a tick.
const tickEveryBundles = 32

// report folds the reader's samples into the round. Read time is the sum
// of the bundles' times: the ticks between them are not part of it.
func (r *reader) report(out *roundOut) {
	n := len(r.samplesUs)
	out.readUs = r.samplesUs
	out.bundles = float64(n)
	out.readS = sum(r.samplesUs) / 1e6
	out.attempted += n * (bundleFinds + 1)
	out.fails.merge(r.fails)
	if r.traced && n > 0 {
		out.layer["core.find_ns"] = float64(r.findNs) / float64(n*bundleFinds)
		out.layer["core.scan_edges_per_s"] = ratio(float64(r.scanned), float64(r.scanNs)/1e9)
	}
}

// readStage is the read stage of the workloads whose store is quiescent
// when it runs: a fixed number of bundles, closed loop, one client.
func readStage(e *env, st store, o *oracle, out *roundOut) {
	r := &reader{st: st, o: o, traced: e.tr != nil, checkScan: true,
		samplesUs: make([]float64, 0, e.cfg.size.readBundles)}
	// The read, analytics and recovery stages are a few tenths of a second
	// each: whether one of the collector's cycles falls into them would
	// decide their time. They start from a collected heap instead.
	runtime.GC()
	sp := e.tr.scope("stage.read")
	for i := 0; i < e.cfg.size.readBundles; i++ {
		r.bundleAndTick(i, e.clk)
	}
	e.tr.end(sp)
	out.readSlow = e.clk.slowdown()
	r.report(out)
}

// analyticsStage runs one hybrid-mode BFS from the hub over the
// workload's final store and checks it against the reference BFS.
func analyticsStage(e *env, st engine.GraphStore, o *oracle, out *roundOut) error {
	eng, err := engine.New(st, algorithms.BFS(o.hub), engine.Options{Mode: engine.Hybrid})
	if err != nil {
		return fmt.Errorf("analytics stage: %w", err)
	}
	e.clk.burst()
	sp := e.tr.begin("engine.RunFromScratch.bfs", -1)
	start := time.Now()
	res := eng.RunFromScratch()
	el := time.Since(start).Seconds()
	e.tr.end(sp)
	e.clk.burst()
	out.analyticsSlow = e.clk.slowdown()
	out.analyticsEdges += float64(st.NumEdges())
	out.analyticsS += el
	out.attempted++
	if !res.Converged {
		out.fails.addf("analytics stage: BFS did not converge")
	}
	o.checkBFS(eng.Values(), "analytics stage", &out.fails)
	if e.tr != nil {
		out.layer["engine.run_s.bfs"] += el
		addEngineCounts(out.layer, res, float64(st.NumEdges()))
	}
	return nil
}

// addEngineCounts accumulates one engine run's counters; liveEdges is
// the store's size at the run.
func addEngineCounts(layer map[string]float64, res engine.RunResult, liveEdges float64) {
	layer["engine.iterations"] += float64(len(res.Iterations))
	layer["engine.full_iters"] += float64(res.FullIterations)
	layer["engine.incr_iters"] += float64(res.IncrementalIterations)
	layer["engine.active_total"] += float64(res.ActiveTotal)
	layer["engine.edges_loaded"] += float64(res.EdgesLoaded) // scratch: folded into a ratio by finishEngineCounts
	layer["engine.live_edges"] += liveEdges
}

func finishEngineCounts(layer map[string]float64) {
	layer["engine.loaded_per_live_edge"] = ratio(layer["engine.edges_loaded"], layer["engine.live_edges"])
	delete(layer, "engine.edges_loaded")
	delete(layer, "engine.live_edges")
}

// coreCounts reads the structure counters of a store's shards after the
// update stage; ops is the number of updates that produced them.
func coreCounts(layer map[string]float64, st core.Stats, shards []*core.GraphTinker, ops float64) {
	layer["core.cells_per_op"] = ratio(float64(st.CellsInspected), ops)
	layer["core.workblocks_per_op"] = ratio(float64(st.WorkblocksRetrieved), ops)
	layer["core.rhh_swaps_per_op"] = ratio(float64(st.RHHSwaps), ops)
	layer["core.branches"] = float64(st.Branches)
	layer["core.max_generation"] = float64(st.MaxGeneration)
	layer["core.compaction_moves_per_delete"] = ratio(float64(st.CompactionMoves), float64(st.Deletes))
	layer["core.promotions"] = float64(st.Promotions)
	layer["core.demotions"] = float64(st.Demotions)
	var bytes, live, cells, maxShard float64
	for _, g := range shards {
		bytes += float64(g.Memory().Total())
		occ := g.OccupancyReport()
		live += float64(occ.LiveEdges)
		cells += float64(occ.CellsAllocated)
		maxShard = max(maxShard, float64(g.NumEdges()))
	}
	layer["core.struct_bytes_per_edge"] = ratio(bytes, live)
	layer["core.edgeblock_fill"] = ratio(live, cells)
	if len(shards) > 1 {
		layer["parallel.shard_skew"] = ratio(maxShard, live/float64(len(shards)))
	}
}

func parallelShards(p *core.Parallel) []*core.GraphTinker {
	gs := make([]*core.GraphTinker, p.NumShards())
	for i := range gs {
		gs[i] = p.Shard(i)
	}
	return gs
}

// snapshotRecovery is the recovery stage of the workloads with no WAL:
// the store is written to a snapshot file (untimed) and recovery_s is the
// time to get a serving store back from it.
func snapshotRecovery(e *env, write func(io.Writer) error, read func(io.Reader) (store, func(), error), o *oracle, out *roundOut) error {
	path := filepath.Join(e.dir, "store.snap")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("recovery stage: %w", err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("recovery stage: write snapshot: %w", err)
	}
	runtime.GC() // see readStage
	e.clk.burst()
	sp := e.tr.begin("core.ReadSnapshot", -1)
	start := time.Now()
	in, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("recovery stage: %w", err)
	}
	st, release, err := read(in)
	out.recoveryS = time.Since(start).Seconds()
	e.tr.end(sp)
	e.clk.burst()
	out.recoverySlow = e.clk.slowdown()
	_ = in.Close() // read-only handle
	if err != nil {
		return fmt.Errorf("recovery stage: read snapshot: %w", err)
	}
	defer release()
	out.attempted++
	o.checkState(st, "recovered store", &out.fails)
	o.checkLookups(st, "recovered store", &out.fails)
	return nil
}

// graphTinkerRecovery is snapshotRecovery for a single GraphTinker.
func graphTinkerRecovery(e *env, g *core.GraphTinker, o *oracle, out *roundOut) error {
	return snapshotRecovery(e, g.WriteSnapshot, func(r io.Reader) (store, func(), error) {
		back, err := core.ReadSnapshot(r, nil)
		return back, func() {}, err
	}, o, out)
}

// runResult is one workload's aggregated outcome.
type runResult struct {
	Workload  string   `json:"workload"`
	Checksum  uint32   `json:"input_crc32c"`
	Rounds    int      `json:"rounds"`
	WallS     float64  `json:"wall_s"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Warnings  []string `json:"warnings,omitempty"`
	// EndToEnd is what the contract line carries: times at the reference
	// memory speed. RawEndToEnd is the same metrics as the wall clock
	// read them.
	EndToEnd    map[string]float64 `json:"end_to_end,omitempty"`
	RawEndToEnd map[string]float64 `json:"raw_end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	// Samples pools each latency's raw samples over the rounds: how many
	// there are, their median and tail, and which quantile the tail is
	// at this sample count.
	Samples map[string]latencySummary `json:"samples,omitempty"`
	// PerRound holds each round's end-to-end values and stage slowdowns,
	// in round order.
	PerRound map[string][]float64 `json:"per_round,omitempty"`
}

// runWorkload builds the workload's inputs and oracle (untimed), then
// runs whole rounds (set-up is a metric too) until cfg.seconds have
// passed. The first round is a warm-up: it grows the heap to its working
// size, which no later round pays for, so its numbers are checked for
// correctness and then dropped. On a traced run the round after it is
// untraced, to measure tracing overhead against, and only the later ones
// feed the per-layer metrics.
func runWorkload(def workloadDef, cfg runConfig, tr *tracer, clk *memClock) (*runResult, error) {
	wallStart := time.Now()
	w, err := def.build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	res := &runResult{Workload: def.Name, Checksum: w.inputChecksum()}
	var rounds []*roundOut
	var untracedUpdateS float64
	// A traced run keeps part of its time for the isolated probes that
	// follow the rounds, and its rounds are longer: it may make one fewer.
	budget, fewest := cfg.seconds, minRounds
	if cfg.traced {
		budget, fewest = budget*tracedRoundShare, minRounds-1
	}
	roundsStart := time.Now()
	lastRound := 0.0
	for i := 0; len(rounds) < fewest || time.Since(roundsStart).Seconds()+lastRound < budget; i++ {
		roundStart := time.Now()
		e := &env{cfg: cfg, clk: clk}
		if cfg.traced && i > 1 {
			e.tr = tr
			tr.round = i
		}
		out, err := runRound(w, e, def.Name, i)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", def.Name, i, err)
		}
		if e.tr != nil {
			finishEngineCounts(out.layer)
		}
		res.Attempted += out.attempted
		res.Failed += out.fails.n
		res.Failures = append(res.Failures, out.fails.msgs...)
		res.Warnings = append(res.Warnings, out.warnings...)
		lastRound = time.Since(roundStart).Seconds()
		switch {
		case i == 0:
		case i == 1 && cfg.traced:
			untracedUpdateS = out.updateS / out.updateSlow
		default:
			rounds = append(rounds, out)
		}
	}
	res.Rounds = len(rounds)
	res.Samples = map[string]latencySummary{
		"ack_ms":     summarize(pool(rounds, func(r *roundOut) []float64 { return r.ackMs })),
		"visible_ms": summarize(pool(rounds, func(r *roundOut) []float64 { return r.visibleMs })),
		"read_us":    summarize(pool(rounds, func(r *roundOut) []float64 { return r.readUs })),
	}
	if cfg.traced {
		e := &env{cfg: cfg, tr: tr, clk: clk}
		tr.round = -1
		dir, err := os.MkdirTemp(cfg.workdir, def.Name+"-extras-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		extra := map[string]float64{}
		err = w.extras(e, extra)
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s extras: %w", def.Name, err)
		}
		res.PerLayer = aggregateLayer(rounds, extra)
		res.PerLayer["tail.ack_p99_ms"] = res.Samples["ack_ms"].Tail
		res.PerLayer["tail.visible_p99_ms"] = res.Samples["visible_ms"].Tail
		res.PerLayer["tail.read_p99_us"] = res.Samples["read_us"].Tail
		res.PerLayer["gen.mem_slowdown_x"] = median(pick(rounds, func(r *roundOut) float64 { return r.updateSlow }))
		res.PerLayer["trace.overhead_x"] = ratio(median(pick(rounds, func(r *roundOut) float64 { return r.updateS / r.updateSlow })), untracedUpdateS)
		res.PerLayer["trace.spans"] = float64(tr.count())
		if hi := res.PerLayer["ladder.over_stream_x"]; hi != 0 && (hi > 1.15 || hi < 1/1.15) {
			res.Warnings = append(res.Warnings, fmt.Sprintf("ladder.replica_s is %.2fx the traced stream's time over the same prefix (want within 15%%)", hi))
		}
	} else {
		res.EndToEnd, res.RawEndToEnd, res.PerRound = aggregateEndToEnd(rounds)
	}
	res.WallS = time.Since(wallStart).Seconds()
	return res, nil
}

// runRound gives the round its own scratch directory and removes it on
// every path.
func runRound(w workload, e *env, name string, i int) (out *roundOut, err error) {
	e.dir, err = os.MkdirTemp(e.cfg.workdir, fmt.Sprintf("%s-r%d-", name, i))
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(e.dir); err == nil && rerr != nil {
			err = rerr
		}
	}()
	// The round before left its stores behind as garbage; set-up would
	// pay for collecting them, more or less of it from run to run.
	runtime.GC()
	sp := e.tr.scope("round")
	out, err = w.round(e)
	e.tr.end(sp)
	return out, err
}

func pick(rounds []*roundOut, f func(*roundOut) float64) []float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return xs
}

func pool(rounds []*roundOut, f func(*roundOut) []float64) []float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, f(r)...)
	}
	return xs
}

// endToEnd derives one round's end-to-end values. With atRef set, every
// time spent working a store is divided by its stage's slowdown.
func (r *roundOut) endToEnd(atRef bool) map[string]float64 {
	pre, upd, rd, an, rec := 1.0, 1.0, 1.0, 1.0, 1.0
	if atRef {
		pre, upd, rd, an, rec = r.preloadSlow, r.updateSlow, r.readSlow, r.analyticsSlow, r.recoverySlow
	}
	rate := upd
	if r.wallRate {
		rate = 1
	}
	return map[string]float64{
		"setup_s":               r.setupS + r.preloadS/pre,
		"updates_per_s":         ratio(r.updates, r.updateS/rate),
		"ack_p50_ms":            median(r.ackMs) / upd,
		"visible_p50_ms":        median(r.visibleMs) / upd,
		"reads_per_s":           ratio(r.bundles, r.readS/rd),
		"read_p50_us":           median(r.readUs) / rd,
		"analytics_edges_per_s": ratio(r.analyticsEdges, r.analyticsS/an),
		"bytes_per_edge":        ratio(r.heapBytes, r.heapEdges),
		"recovery_s":            r.recoveryS / rec,
	}
}

// aggregateEndToEnd reports every metric as the median over rounds of
// the round's own value (for a latency, the round's median sample), at
// the reference memory speed and raw. setup_s is the least of the rounds'
// values instead: a run has three to six of them, what disturbs set-up
// (collections, page faults, fsyncs) only ever adds time, and over seven
// ten-seed sets of the seed commit the median of medians moved by 52% on
// stream-durable where the median of minima moved by 20%.
func aggregateEndToEnd(rounds []*roundOut) (atRef, raw map[string]float64, perRound map[string][]float64) {
	perRound = map[string][]float64{
		"slowdown.update":    pick(rounds, func(r *roundOut) float64 { return r.updateSlow }),
		"slowdown.read":      pick(rounds, func(r *roundOut) float64 { return r.readSlow }),
		"slowdown.analytics": pick(rounds, func(r *roundOut) float64 { return r.analyticsSlow }),
		"slowdown.recovery":  pick(rounds, func(r *roundOut) float64 { return r.recoverySlow }),
	}
	medianOf := func(atRef bool) map[string]float64 {
		byName := map[string][]float64{}
		for _, r := range rounds {
			for name, v := range r.endToEnd(atRef) {
				byName[name] = append(byName[name], v)
			}
		}
		m := make(map[string]float64, len(byName))
		for name, xs := range byName {
			m[name] = median(xs)
			if name == "setup_s" {
				m[name] = sorted(xs)[0]
			}
			if atRef {
				perRound[name] = xs
			}
		}
		return m
	}
	atRef, raw = medianOf(true), medianOf(false)
	return atRef, raw, perRound
}

// aggregateLayer takes, for every declared per-layer metric, the median
// over the traced rounds (exact counts are equal in all of them) and
// overlays the extras. A metric no round or probe produced stays 0: the
// workload does not exercise that layer.
func aggregateLayer(rounds []*roundOut, extra map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = median(pick(rounds, func(r *roundOut) float64 { return r.layer[d.Name] }))
		if v, ok := extra[d.Name]; ok {
			m[d.Name] = v
		}
	}
	return m
}

// errIncorrect marks a run whose checks failed; main turns it into a
// non-zero exit after the result has been printed.
var errIncorrect = errors.New("correctness checks failed")
