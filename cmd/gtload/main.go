// Command gtload generates a dataset from the Table-1 registry (or custom
// RMAT parameters), loads it into GraphTinker, and reports structure
// statistics: throughput, probe behaviour, occupancy and memory footprint.
//
// Usage:
//
//	gtload -dataset Hollywood-2009 -scale 256
//	gtload -rmat-scale 18 -edge-factor 16
//	gtload -dataset RMAT_2M_32M -scale 128 -compact
//	gtload -rmat-scale 20 -shards 8 -stream -metrics-out stream.json
//	gtload -rmat-scale 18 -wal-dir ./primary -replicate-addr :7000
//	gtload -follow ./replica -primary-addr localhost:7000 -wait-lsn 4194304
//	gtload -follow ./replica -promote
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	graphtinker "graphtinker"
	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/edgefile"
	"graphtinker/internal/ingest"
	"graphtinker/internal/metrics"
	"graphtinker/internal/rmat"
)

func main() {
	var (
		dataset    = flag.String("dataset", "", "Table-1 dataset name (see -list)")
		list       = flag.Bool("list", false, "list datasets and exit")
		scale      = flag.Int("scale", 256, "dataset scale divisor, rounded up to a power of two (100 runs at 1/128)")
		rmatScale  = flag.Int("rmat-scale", 0, "custom RMAT: log2 vertices (overrides -dataset)")
		edgeFactor = flag.Uint64("edge-factor", 16, "custom RMAT: edges per vertex")
		seed       = flag.Uint64("seed", 1, "custom RMAT seed")
		file       = flag.String("file", "", "load a text edge list (src dst [weight] per line) instead of generating")
		fileBase   = flag.Uint64("file-base", 0, "subtract this from ids in -file (1 for Matrix Market)")
		symmetrize = flag.Bool("symmetrize", false, "emit both directions for -file edges")
		batch      = flag.Int("batch", 100000, "edges per batch")
		noSGH      = flag.Bool("no-sgh", false, "disable Scatter-Gather Hashing")
		compact    = flag.Bool("compact", false, "use the delete-and-compact mechanism")
		histograms = flag.Bool("histograms", false, "print probe/generation/degree histograms after loading")
		metricsOut = flag.String("metrics-out", "", "write per-insert latency/probe histograms and store counters to this JSON file")
		shards     = flag.Int("shards", 1, "load into a sharded store with this many shards")
		stream     = flag.Bool("stream", false, "load through the streaming ingestion pipeline (sharded; use with -shards)")
		coalesce   = flag.Int("coalesce", ingest.DefaultMaxBatch, "-stream: updates coalesced per flush")
		strict     = flag.Bool("strict", false, "-file: reject corrupt lines (with byte offsets) instead of skipping them")
		walDirF    = flag.String("wal-dir", "", "durability directory: WAL-log every op before applying (implies -stream)")
		snapEvery  = flag.Uint64("snapshot-every", 0, "-wal-dir: auto-checkpoint after this many ops (0 = only at exit)")
		syncEvery  = flag.Duration("sync-interval", 2*time.Millisecond, "-wal-dir: WAL group-commit period (0 = fsync every append, -1ns = barriers only)")
		recoverF   = flag.Bool("recover", false, "-wal-dir: recover existing state from the directory before loading (no data flags = report and exit)")
		replAddr   = flag.String("replicate-addr", "", "-wal-dir: serve the checkpoint + live WAL tail to followers on this TCP address (keeps serving after the load until interrupted)")
		follow     = flag.String("follow", "", "follower durability directory: replicate from -primary-addr instead of loading")
		primAddr   = flag.String("primary-addr", "", "-follow: primary TCP address to stream from")
		waitLSN    = flag.Uint64("wait-lsn", 0, "-follow: exit once the replica has applied every op below this LSN (read-your-writes barrier)")
		promote    = flag.Bool("promote", false, "-follow: promote the replica directory to a primary (bumps the epoch) and exit; reopen it with -wal-dir -replicate-addr to serve")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the load to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

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

	if *list {
		for _, d := range datasets.Table1() {
			fmt.Printf("%-18s %-10s %12d vertices %14d edges\n", d.Name, d.Kind, d.Vertices, d.Edges)
		}
		return
	}

	cfg := core.DefaultConfig()
	cfg.EnableSGH = !*noSGH
	if *compact {
		cfg.DeleteMode = core.DeleteAndCompact
	}

	if *follow != "" {
		if *walDirF != "" {
			fatal("-follow and -wal-dir are mutually exclusive (a process is a primary or a replica, not both)")
		}
		runFollower(cfg, followFlags{
			dir:        *follow,
			addr:       *primAddr,
			waitLSN:    *waitLSN,
			promote:    *promote,
			shards:     *shards,
			syncEvery:  *syncEvery,
			metricsOut: *metricsOut,
		})
		return
	}
	if *primAddr != "" || *waitLSN > 0 || *promote {
		fatal("-primary-addr, -wait-lsn and -promote need -follow")
	}
	if *replAddr != "" && *walDirF == "" {
		fatal("-replicate-addr needs -wal-dir (followers stream the WAL)")
	}

	var batches [][]rmat.Edge
	var label string
	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			fatal("%v", err)
		}
		coreBatches, err := edgefile.ReadBatches(f, edgefile.Options{
			Base: *fileBase, Symmetrize: *symmetrize, Strict: *strict,
		}, *batch)
		_ = f.Close() // read-only; the read error below is the one that matters
		if err != nil {
			fatal("%v", err)
		}
		for _, cb := range coreBatches {
			rb := make([]rmat.Edge, len(cb))
			for i, e := range cb {
				rb[i] = rmat.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
			}
			batches = append(batches, rb)
		}
		label = *file
	case *rmatScale > 0:
		p := rmat.Graph500Params(*rmatScale, *edgeFactor, *seed)
		var err error
		batches, err = rmat.GenerateBatches(p, *batch)
		if err != nil {
			fatal("%v", err)
		}
		label = fmt.Sprintf("RMAT scale=%d edgefactor=%d", *rmatScale, *edgeFactor)
	case *dataset != "":
		d, err := datasets.ByName(*dataset)
		if err != nil {
			fatal("%v", err)
		}
		batches, err = d.Materialize(*scale, *batch)
		if err != nil {
			fatal("%v", err)
		}
		label = fmt.Sprintf("%s at 1/%d scale", d.Name, *scale)
	case *recoverF && *walDirF != "":
		label = "recovery only"
	default:
		fatal("need -dataset, -rmat-scale or -file (use -list to see datasets)")
	}

	if *walDirF != "" {
		if *histograms {
			fmt.Fprintln(os.Stderr, "gtload: -histograms is only available for the single-instance path")
		}
		loadDurable(cfg, batches, label, durableFlags{
			dir:           *walDirF,
			shards:        *shards,
			coalesce:      *coalesce,
			snapEvery:     *snapEvery,
			syncEvery:     *syncEvery,
			recover:       *recoverF,
			replicateAddr: *replAddr,
			metricsOut:    *metricsOut,
		})
		return
	}
	if *recoverF {
		fatal("-recover needs -wal-dir")
	}
	if *stream || *shards > 1 {
		if *histograms {
			fmt.Fprintln(os.Stderr, "gtload: -histograms is only available for the single-instance path")
		}
		loadSharded(cfg, batches, label, *shards, *stream, *coalesce, *metricsOut)
		return
	}

	g, err := core.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	var rec *metrics.UpdateRecorder
	if *metricsOut != "" {
		rec = metrics.NewUpdateRecorder()
		g.Instrument(rec)
	}

	fmt.Printf("loading %s (%d batches of <=%d edges)\n", label, len(batches), *batch)
	var total int
	start := time.Now()
	for i, b := range batches {
		edges := make([]core.Edge, len(b))
		for j, e := range b {
			edges[j] = core.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
		}
		bStart := time.Now()
		g.InsertBatch(edges)
		total += len(b)
		fmt.Printf("  batch %3d: %8d edges, %7.2f Medges/s\n",
			i+1, len(b), float64(len(b))/time.Since(bStart).Seconds()/1e6)
	}
	elapsed := time.Since(start)

	st := g.Stats()
	occ := g.OccupancyReport()
	mem := g.Memory()
	fmt.Printf("\nloaded %d tuples in %.2fs (%.2f Medges/s overall)\n",
		total, elapsed.Seconds(), float64(total)/elapsed.Seconds()/1e6)
	fmt.Printf("live edges:          %d\n", g.NumEdges())
	fmt.Printf("non-empty sources:   %d\n", g.NonEmptySources())
	fmt.Printf("inserts/updates:     %d / %d\n", st.Inserts, st.Updates)
	fmt.Printf("cells inspected:     %d (%.2f per op)\n", st.CellsInspected,
		float64(st.CellsInspected)/float64(st.Inserts+st.Updates+1))
	fmt.Printf("workblock fetches:   %d\n", st.WorkblocksRetrieved)
	fmt.Printf("RHH swaps:           %d\n", st.RHHSwaps)
	fmt.Printf("branch-outs:         %d (max generation %d)\n", st.Branches, st.MaxGeneration)
	fmt.Printf("blocks allocated:    %d\n", st.BlocksAllocated)
	fmt.Printf("edgeblock fill:      %.1f%%\n", 100*occ.Fill())
	fmt.Printf("memory:              %.1f MB (containers %.1f, SGH %.1f, props %.1f)\n",
		mb(mem.Total()), mb(mem.ContainerBytes), mb(mem.SGHBytes), mb(mem.VertexPropsBytes))

	if *metricsOut != "" {
		doc := struct {
			Label   string                   `json:"label"`
			Edges   int                      `json:"edges"`
			Seconds float64                  `json:"seconds"`
			Store   core.Stats               `json:"store"`
			Updates metrics.RecorderSnapshot `json:"updates"`
		}{label, total, elapsed.Seconds(), st, rec.Snapshot()}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal("-metrics-out: %v", err)
		}
		if err := os.WriteFile(*metricsOut, append(raw, '\n'), 0o644); err != nil {
			fatal("-metrics-out: %v", err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}

	if *histograms {
		h := g.AnalyzeProbes()
		fmt.Printf("\nprobe distances (mean %.2f, max %d):\n", h.MeanProbe(), h.MaxProbe)
		for p, c := range h.ByProbe {
			if c > 0 {
				fmt.Printf("  probe %2d: %d\n", p, c)
			}
		}
		fmt.Printf("generations (mean %.2f, max %d):\n", h.MeanGeneration(), h.MaxGeneration)
		for gen, c := range h.ByGeneration {
			if c > 0 {
				fmt.Printf("  gen %2d:   %d\n", gen, c)
			}
		}
		fmt.Println("degree buckets (2^k..2^(k+1)-1 vertices):")
		for k, c := range g.DegreeHistogram() {
			if c > 0 {
				fmt.Printf("  2^%-2d:     %d\n", k, c)
			}
		}
	}
}

// loadSharded drives the sharded store, either synchronously (InsertBatch,
// which deals its shards to the apply helper pool) or through the
// streaming ingestion pipeline (-stream: coalescing buffer, one applier
// handing each flush to ApplyOps, bounded admission), and reports
// aggregate counters plus — for -stream — the pipeline's
// queue-depth/batch-size/flush-latency telemetry.
func loadSharded(cfg core.Config, batches [][]rmat.Edge, label string, shards int, stream bool, coalesce int, metricsOut string) {
	p, err := core.NewParallel(cfg, shards)
	if err != nil {
		fatal("%v", err)
	}

	mode := "synchronous InsertBatch"
	if stream {
		mode = "streaming pipeline"
	}
	fmt.Printf("loading %s into %d shards via %s (%d batches)\n", label, shards, mode, len(batches))

	var irec *ingest.Recorder
	var totals ingest.Totals
	var total int
	start := time.Now()
	if stream {
		irec = ingest.NewRecorder()
		pl, err := ingest.New(p, ingest.Options{MaxBatch: coalesce, Recorder: irec})
		if err != nil {
			fatal("%v", err)
		}
		ops := make([]ingest.Update, 0, coalesce)
		for _, b := range batches {
			ops = ops[:0]
			for _, e := range b {
				ops = append(ops, ingest.Insert(e.Src, e.Dst, e.Weight))
			}
			if err := pl.PushBatch(ops); err != nil {
				fatal("push: %v", err)
			}
			total += len(b)
		}
		totals, _ = pl.Close()
	} else {
		for _, b := range batches {
			edges := make([]core.Edge, len(b))
			for j, e := range b {
				edges[j] = core.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
			}
			p.InsertBatch(edges)
			total += len(b)
		}
	}
	elapsed := time.Since(start)

	st := p.Stats()
	fmt.Printf("\nloaded %d tuples in %.2fs (%.2f Medges/s overall)\n",
		total, elapsed.Seconds(), float64(total)/elapsed.Seconds()/1e6)
	fmt.Printf("live edges:          %d\n", p.NumEdges())
	fmt.Printf("inserts/updates:     %d / %d\n", st.Inserts, st.Updates)
	fmt.Printf("cells inspected:     %d (%.2f per op)\n", st.CellsInspected,
		float64(st.CellsInspected)/float64(st.Inserts+st.Updates+1))
	fmt.Printf("blocks allocated:    %d\n", st.BlocksAllocated)
	for s, ss := range p.ShardStats() {
		fmt.Printf("  shard %2d: %10d inserts, %8d blocks, %d replica(s) (%d shadow builds, %d drops)\n",
			s, ss.Inserts, ss.BlocksAllocated, ss.Replicas, ss.ShadowBuilds, ss.ShadowDrops)
	}
	if stream {
		snap := irec.Snapshot()
		fmt.Printf("pipeline flushes:    %d (mean batch %.0f updates)\n",
			snap.Flushes, snap.BatchSize.Mean())
		fmt.Printf("flush latency:       mean %s\n", time.Duration(snap.FlushLatencyNs.Mean()))
		fmt.Printf("pushed/applied:      %d / %d\n", totals.Pushed, totals.Inserted)
	}

	if metricsOut != "" {
		doc := struct {
			Label   string                   `json:"label"`
			Shards  int                      `json:"shards"`
			Stream  bool                     `json:"stream"`
			Edges   int                      `json:"edges"`
			Seconds float64                  `json:"seconds"`
			Store   core.Stats               `json:"store"`
			ByShard []core.Stats             `json:"by_shard"`
			Ingest  *ingest.RecorderSnapshot `json:"ingest,omitempty"`
		}{label, shards, stream, total, elapsed.Seconds(), st, p.ShardStats(), nil}
		if irec != nil {
			snap := irec.Snapshot()
			doc.Ingest = &snap
		}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal("-metrics-out: %v", err)
		}
		if err := os.WriteFile(metricsOut, append(raw, '\n'), 0o644); err != nil {
			fatal("-metrics-out: %v", err)
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
}

type durableFlags struct {
	dir           string
	shards        int
	coalesce      int
	snapEvery     uint64
	syncEvery     time.Duration
	recover       bool
	replicateAddr string
	metricsOut    string
}

// loadDurable drives the crash-safe streaming path: every op is WAL-logged
// before it is applied, so killing the process mid-load (see
// scripts/kill_recover.sh) loses at most the group-commit window, and a
// later -recover run restores the durable prefix exactly.
func loadDurable(cfg core.Config, batches [][]rmat.Edge, label string, f durableFlags) {
	wrec := graphtinker.NewWALRecorder()
	streamOpts := graphtinker.DurableStreamOptions{
		Shards:   f.shards,
		Pipeline: graphtinker.StreamPipelineOptions{MaxBatch: f.coalesce},
		Durability: graphtinker.DurabilityOptions{
			SyncInterval:  f.syncEvery,
			SnapshotEvery: f.snapEvery,
			Recorder:      wrec,
		},
	}
	var (
		ds   *graphtinker.DurableStream
		rs   *graphtinker.ReplicatedStream
		rrec *graphtinker.ReplicationRecorder
		err  error
	)
	if f.replicateAddr != "" {
		rrec = graphtinker.NewReplicationRecorder()
		rs, err = graphtinker.OpenReplicatedStream(cfg, f.dir, graphtinker.ReplicatedStreamOptions{
			Stream:            streamOpts,
			HeartbeatInterval: 500 * time.Millisecond,
			Recorder:          rrec,
		})
		if err != nil {
			fatal("%v", err)
		}
		ds = rs.DurableStream
		ln, lerr := net.Listen("tcp", f.replicateAddr)
		if lerr != nil {
			fatal("-replicate-addr: %v", lerr)
		}
		if serr := rs.Serve(ln); serr != nil {
			fatal("-replicate-addr: %v", serr)
		}
		fmt.Printf("serving followers on %s (epoch %d)\n", ln.Addr(), ds.Epoch())
	} else {
		ds, err = graphtinker.OpenDurableStream(cfg, f.dir, streamOpts)
		if err != nil {
			fatal("%v", err)
		}
	}
	info := ds.Recovery()
	if info.Recovered {
		fmt.Printf("recovered %s: snapshot %d ops + replayed %d ops = LSN %d, %d live edges\n",
			f.dir, info.SnapshotOps, info.ReplayedOps, ds.NextLSN(), ds.Store().NumEdges())
	} else if f.recover {
		fmt.Printf("nothing to recover in %s (fresh directory)\n", f.dir)
	}

	var total int
	start := time.Now()
	if len(batches) > 0 {
		fmt.Printf("loading %s into %d shards via durable pipeline (wal-dir %s, %d batches)\n",
			label, f.shards, f.dir, len(batches))
		ops := make([]graphtinker.Update, 0, f.coalesce)
		for i, b := range batches {
			ops = ops[:0]
			for _, e := range b {
				ops = append(ops, graphtinker.InsertUpdate(e.Src, e.Dst, e.Weight))
			}
			bStart := time.Now()
			if err := ds.PushBatch(ops); err != nil {
				fatal("push: %v", err)
			}
			// Auto-checkpoint failures are out-of-band: the batch itself is
			// durable, so warn and keep loading (the final Checkpoint below
			// still gates exit).
			if cerr := ds.LastCheckpointErr(); cerr != nil {
				fmt.Fprintf(os.Stderr, "warning: auto-checkpoint failed (ops remain durable in the WAL): %v\n", cerr)
			}
			total += len(b)
			fmt.Printf("  batch %3d: %8d edges, %7.2f Medges/s, LSN %d\n",
				i+1, len(b), float64(len(b))/time.Since(bStart).Seconds()/1e6, ds.NextLSN())
		}
		if err := ds.Flush(); err != nil {
			fatal("flush: %v", err)
		}
		if err := ds.Checkpoint(); err != nil {
			fatal("checkpoint: %v", err)
		}
	}
	elapsed := time.Since(start)

	// A serving primary keeps streaming to followers after the load;
	// telemetry and exit wait for the operator.
	if rs != nil {
		fmt.Printf("load complete at LSN %d; serving followers on %s until interrupted\n",
			ds.NextLSN(), f.replicateAddr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		signal.Stop(sig)
	}

	st := ds.Store().Stats()
	totals := ds.Totals()
	if total > 0 {
		fmt.Printf("\nloaded %d tuples in %.2fs (%.2f Medges/s overall, durably acknowledged)\n",
			total, elapsed.Seconds(), float64(total)/elapsed.Seconds()/1e6)
	}
	fmt.Printf("live edges:          %d\n", ds.Store().NumEdges())
	fmt.Printf("durable LSN:         %d\n", ds.NextLSN())
	snap := wrec.Snapshot()
	fmt.Printf("wal appends:         %d records / %d ops / %.1f MB\n",
		snap.AppendedRecords, snap.AppendedOps, mb(snap.AppendedBytes))
	fmt.Printf("wal fsyncs:          %d (mean %s)\n", snap.Fsyncs, time.Duration(snap.FsyncLatencyNs.Mean()))
	fmt.Printf("wal segments:        %d created, %d pruned\n", snap.SegmentsCreated, snap.SegmentsPruned)
	if snap.ReplayedOps > 0 || snap.TruncatedBytes > 0 {
		fmt.Printf("wal recovery:        %d ops replayed, %d torn bytes truncated\n",
			snap.ReplayedOps, snap.TruncatedBytes)
	}
	var rsnap *graphtinker.ReplicationRecorderSnapshot
	if rrec != nil {
		s := rrec.Snapshot()
		rsnap = &s
		fmt.Printf("replication:         %d records / %d ops shipped in %d frames (%.1f MB), %d snapshot bootstraps, %d stale-epoch rejects\n",
			s.RecordsShipped, s.OpsShipped, s.FramesSent, mb(s.BytesShipped), s.SnapshotsSent, s.StaleEpochRejects)
	}

	if f.metricsOut != "" {
		doc := struct {
			Label       string                                   `json:"label"`
			Shards      int                                      `json:"shards"`
			Edges       int                                      `json:"edges"`
			Seconds     float64                                  `json:"seconds"`
			Recovery    graphtinker.RecoveryInfo                 `json:"recovery"`
			Store       core.Stats                               `json:"store"`
			Totals      graphtinker.StreamTotals                 `json:"totals"`
			WAL         graphtinker.WALRecorderSnapshot          `json:"wal"`
			Replication *graphtinker.ReplicationRecorderSnapshot `json:"replication,omitempty"`
		}{label, f.shards, total, elapsed.Seconds(), info, st, totals, snap, rsnap}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal("-metrics-out: %v", err)
		}
		if err := os.WriteFile(f.metricsOut, append(raw, '\n'), 0o644); err != nil {
			fatal("-metrics-out: %v", err)
		}
		fmt.Printf("metrics written to %s\n", f.metricsOut)
	}

	if rs != nil {
		if _, err := rs.Close(); err != nil {
			fatal("close: %v", err)
		}
	} else if _, err := ds.Close(); err != nil {
		fatal("close: %v", err)
	}
}

type followFlags struct {
	dir        string
	addr       string
	waitLSN    uint64
	promote    bool
	shards     int
	syncEvery  time.Duration
	metricsOut string
}

// runFollower drives the replica path: recover the follower directory,
// optionally stream from a primary (until -wait-lsn is reached, the
// stream ends, or the process is interrupted), optionally promote, and
// report the apply-side telemetry.
func runFollower(cfg core.Config, f followFlags) {
	rrec := graphtinker.NewReplicationRecorder()
	wrec := graphtinker.NewWALRecorder()
	rf, err := graphtinker.OpenFollower(cfg, f.dir, graphtinker.FollowerHandleOptions{
		Shards:     f.shards,
		Durability: graphtinker.DurabilityOptions{SyncInterval: f.syncEvery, Recorder: wrec},
		Recorder:   rrec,
	})
	if err != nil {
		fatal("%v", err)
	}
	info := rf.Recovery()
	if info.Recovered {
		fmt.Printf("recovered follower %s: snapshot %d ops + replayed %d ops = LSN %d (epoch %d)\n",
			f.dir, info.SnapshotOps, info.ReplayedOps, rf.AppliedLSN(), rf.Epoch())
	} else {
		fmt.Printf("fresh follower %s (epoch %d)\n", f.dir, rf.Epoch())
	}

	if f.addr != "" {
		runErr := make(chan error, 1)
		go func() { runErr <- rf.Dial(f.addr) }()
		fmt.Printf("streaming from %s\n", f.addr)
		if f.waitLSN > 0 {
			if err := rf.WaitForLSN(f.waitLSN, 0); err != nil {
				fatal("-wait-lsn %d: %v", f.waitLSN, err)
			}
			fmt.Printf("reached LSN barrier %d (applied %d)\n", f.waitLSN, rf.AppliedLSN())
		} else {
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			select {
			case err := <-runErr:
				if err != nil {
					fmt.Fprintf(os.Stderr, "gtload: stream ended: %v\n", err)
				}
			case <-sig:
			}
			signal.Stop(sig)
		}
	} else if f.waitLSN > rf.AppliedLSN() {
		fatal("-wait-lsn %d not reached (applied %d) and no -primary-addr to stream from", f.waitLSN, rf.AppliedLSN())
	}

	ms := rf.MetricsSnapshot()
	fmt.Printf("applied LSN:         %d (state %s, lag %d ops, epoch %d)\n",
		ms.AppliedLSN, ms.State, ms.LagOps, ms.Epoch)
	fmt.Printf("live edges:          %d\n", rf.Store().NumEdges())
	fmt.Printf("replication:         %d records / %d ops applied, %d snapshots installed, %d duplicate records dropped\n",
		ms.Replication.RecordsApplied, ms.Replication.OpsApplied,
		ms.Replication.SnapshotsInstalled, ms.Replication.DuplicateRecords)

	if f.promote {
		e, err := rf.Promote()
		if err != nil {
			fatal("promote: %v", err)
		}
		ms.Epoch = e
		fmt.Printf("promoted %s to epoch %d at LSN %d; reopen with -wal-dir %s -replicate-addr to serve\n",
			f.dir, e, ms.AppliedLSN, f.dir)
	}

	if f.metricsOut != "" {
		doc := struct {
			Label string `json:"label"`
			graphtinker.ReplicaMetrics
			WAL graphtinker.WALRecorderSnapshot `json:"wal"`
		}{"follower " + f.dir, ms, wrec.Snapshot()}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal("-metrics-out: %v", err)
		}
		if err := os.WriteFile(f.metricsOut, append(raw, '\n'), 0o644); err != nil {
			fatal("-metrics-out: %v", err)
		}
		fmt.Printf("metrics written to %s\n", f.metricsOut)
	}
	if !f.promote { // Promote already closed the follower
		if err := rf.Close(); err != nil {
			fatal("close: %v", err)
		}
	}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gtload: "+format+"\n", args...)
	os.Exit(1)
}
