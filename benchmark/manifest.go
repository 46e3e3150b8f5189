package main

// The benchmark's declarations: every workload and every metric it may
// emit. BENCHMARK.json at the repository root repeats this table for
// the driver; TestManifestMatchesBenchmarkJSON keeps the two equal.

// runSeconds is how long one contract run keeps starting rounds; it is
// the "run_seconds" of BENCHMARK.json.
const runSeconds = 20

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// build returns the workload's state for one run; all inputs derive
	// from cfg.seed.
	build func(cfg runConfig) (workload, error)
}

var workloads = []workloadDef{
	{
		Name:  "insert-core",
		Why:   "core alone: RMAT insert then delete-and-compact into one GraphTinker; the no-change control for every ingest, WAL or replication PR",
		build: newInsertCore,
	},
	{
		Name:  "stream-durable",
		Why:   "whole write path closed-loop: ingest, WAL group commit, both seqlock replicas, checkpoints and a TCP follower all block the producer",
		build: newStreamDurable,
	},
	{
		Name:  "stream-paced",
		Why:   "same path open-loop at a fixed rate: batching harder to gain throughput shows up here as ack and follower-visibility latency",
		build: newStreamPaced,
	},
	{
		Name:  "read-churn",
		Why:   "core.Parallel alone, writer then writer beside a reader: the seqlock's write tax and its read latency on one workload",
		build: newReadChurn,
	},
	{
		Name:  "analytics-hybrid",
		Why:   "engine and CAL scan path: hybrid BFS, SSSP and CC after each of ten load batches; update-path changes should not move it",
		build: newAnalyticsHybrid,
	},
}

// End-to-end metrics. Every workload reports every one of them on its
// own store (README.md says what each means where); a bound is the share
// of the parent's median a later change may lose.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "visible_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "reads_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "analytics_edges_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "bytes_per_edge", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Per-layer metrics, named <layer>.<metric>. A workload that does not
// touch a layer reports 0 for it, which is the "does nothing here"
// prediction made checkable. exact marks counts that must repeat
// bit-for-bit across same-seed runs.
var perLayer = []metricDef{
	{Name: "core.insert_s", Unit: "s", Better: "lower"},
	{Name: "core.delete_s", Unit: "s", Better: "lower"},
	{Name: "core.insert_first_last_x", Unit: "x", Better: "higher"},
	{Name: "core.cells_per_op", Unit: "count", Better: "lower"},
	{Name: "core.workblocks_per_op", Unit: "count", Better: "lower"},
	{Name: "core.rhh_swaps_per_op", Unit: "count", Better: "lower"},
	{Name: "core.branches", Unit: "count", Better: "lower"},
	{Name: "core.max_generation", Unit: "count", Better: "lower"},
	{Name: "core.compaction_moves_per_delete", Unit: "count", Better: "lower"},
	{Name: "core.promotions", Unit: "count", Better: "lower"},
	{Name: "core.demotions", Unit: "count", Better: "lower"},
	{Name: "core.struct_bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "core.edgeblock_fill", Unit: "ratio", Better: "higher"},
	{Name: "core.find_ns", Unit: "ns", Better: "lower"},
	{Name: "core.scan_edges_per_s", Unit: "1/s", Better: "higher"},

	{Name: "parallel.apply_s", Unit: "s", Better: "lower"},
	{Name: "parallel.over_core_x", Unit: "x", Better: "lower"},
	{Name: "parallel.shard_skew", Unit: "x", Better: "lower"},
	{Name: "parallel.write_batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.write_batch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.write_batch_churn_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "ingest.push_wait_s", Unit: "s", Better: "lower"},
	{Name: "ingest.flush_wait_s", Unit: "s", Better: "lower"},
	{Name: "ingest.flushes", Unit: "count", Better: "lower"},
	{Name: "ingest.mean_flush_ops", Unit: "count", Better: "higher"},
	{Name: "ingest.dropped", Unit: "count", Better: "lower"},
	{Name: "ingest.over_parallel_x", Unit: "x", Better: "lower"},

	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.ops_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.fsync_mean_us", Unit: "us", Better: "lower"},
	{Name: "wal.segments_created", Unit: "count", Better: "lower"},
	{Name: "wal.segments_pruned", Unit: "count", Better: "higher"},
	{Name: "wal.append_only_eps", Unit: "1/s", Better: "higher"},
	{Name: "wal.replay_eps", Unit: "1/s", Better: "higher"},
	{Name: "wal.durable_over_volatile_x", Unit: "x", Better: "lower"},

	{Name: "replication.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "replication.frames", Unit: "count", Better: "lower"},
	{Name: "replication.ops_per_frame", Unit: "count", Better: "higher"},
	{Name: "replication.lag_mean_ops", Unit: "count", Better: "lower"},
	{Name: "replication.lag_max_ops", Unit: "count", Better: "lower"},
	{Name: "replication.duplicates_dropped", Unit: "count", Better: "lower"},
	{Name: "replication.catchup_eps", Unit: "1/s", Better: "higher"},
	{Name: "replication.replicated_over_durable_x", Unit: "x", Better: "lower"},

	{Name: "facade.checkpoints", Unit: "count", Better: "lower"},
	{Name: "facade.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "facade.ack_p99_during_checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.disk_bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "facade.reopen_snapshot_ops", Unit: "count", Better: "higher"},
	{Name: "facade.reopen_replayed_ops", Unit: "count", Better: "lower"},

	{Name: "engine.run_s.bfs", Unit: "s", Better: "lower"},
	{Name: "engine.run_s.sssp", Unit: "s", Better: "lower"},
	{Name: "engine.run_s.cc", Unit: "s", Better: "lower"},
	{Name: "engine.iterations", Unit: "count", Better: "lower"},
	{Name: "engine.full_iters", Unit: "count", Better: "lower"},
	{Name: "engine.incr_iters", Unit: "count", Better: "lower"},
	{Name: "engine.loaded_per_live_edge", Unit: "ratio", Better: "lower"},
	{Name: "engine.active_total", Unit: "count", Better: "lower"},

	{Name: "stinger.insert_eps", Unit: "1/s", Better: "higher"},
	{Name: "stinger.delete_eps", Unit: "1/s", Better: "higher"},
	{Name: "stinger.first_last_x", Unit: "x", Better: "higher"},
	{Name: "stinger.gt_over_stinger_x", Unit: "x", Better: "higher"},

	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.mem_slowdown_x", Unit: "x", Better: "lower"},

	{Name: "tail.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.visible_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.read_p99_us", Unit: "us", Better: "lower"},

	{Name: "ladder.core_s", Unit: "s", Better: "lower"},
	{Name: "ladder.apply_s", Unit: "s", Better: "lower"},
	{Name: "ladder.ingest_s", Unit: "s", Better: "lower"},
	{Name: "ladder.wal_s", Unit: "s", Better: "lower"},
	{Name: "ladder.fsync_s", Unit: "s", Better: "lower"},
	{Name: "ladder.replica_s", Unit: "s", Better: "lower"},
	{Name: "ladder.over_stream_x", Unit: "x", Better: "lower"},

	{Name: "trace.overhead_x", Unit: "x", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// exactLayer lists the per-layer counts that depend only on the seed:
// the smoke test requires them identical across same-seed runs.
// wal.bytes_per_op is not among them: how the log frames the ops of one
// group commit depends on timing, and moves its fifth digit.
var exactLayer = []string{
	"core.cells_per_op", "core.workblocks_per_op", "core.rhh_swaps_per_op",
	"core.branches", "core.max_generation", "core.compaction_moves_per_delete",
	"core.promotions", "core.demotions", "core.struct_bytes_per_edge",
	"core.edgeblock_fill", "parallel.shard_skew",
	"ingest.dropped", "facade.checkpoints", "facade.reopen_snapshot_ops",
	"facade.reopen_replayed_ops", "engine.iterations", "engine.full_iters",
	"engine.incr_iters", "engine.loaded_per_live_edge", "engine.active_total",
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
