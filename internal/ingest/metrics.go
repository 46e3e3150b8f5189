package ingest

import "graphtinker/internal/metrics"

// Recorder bundles the pipeline's observability instruments, built on the
// race-clean internal/metrics layer: a queue-depth gauge (updates admitted
// but not yet applied), batch-size and latency histograms, and flush/reject
// counters. All fields are safe for concurrent use; a nil *Recorder is a
// valid no-op sink.
type Recorder struct {
	// QueueDepth tracks updates admitted but not yet applied (buffered +
	// queued). Sampled after every admission and apply.
	QueueDepth metrics.Gauge
	// BatchSize observes the number of updates in each applied flush —
	// how well the coalescer is amortizing.
	BatchSize *metrics.Histogram
	// FlushLatency observes nanoseconds from a flush being sealed onto the
	// applier's queue until the applier finished applying it (queue wait +
	// apply).
	FlushLatency *metrics.Histogram
	// ApplyLatency observes just the ApplyOps call duration, per flush.
	ApplyLatency *metrics.Histogram
	// Flushes counts buffer flushes (size-, time- and barrier-triggered).
	Flushes metrics.Counter
	// Rejected counts pushes refused under the Reject backpressure policy
	// or shed with ErrDegraded after durability loss.
	Rejected metrics.Counter
	// Retries counts transient-failure retries on WAL appends and
	// applies (bounded by Options.MaxRetries per operation).
	Retries metrics.Counter
	// WorkerPanics counts apply panics contained by the pipeline.
	WorkerPanics metrics.Counter
	// Dropped counts admitted updates discarded because the pipeline was
	// degraded.
	Dropped metrics.Counter
	// WALFailures counts coalesced flushes whose WAL append failed past the
	// retry budget (each one flips the pipeline into WAL-degraded mode).
	WALFailures metrics.Counter
	// DegradedShards gauges how many shards are currently dropping: 0, or
	// every shard once the pipeline has degraded.
	DegradedShards metrics.Gauge
	// DegradedMode is 1 once the pipeline or the WAL has degraded, else 0 —
	// the single alarm bit for dashboards.
	DegradedMode metrics.Gauge
}

// BatchSizeBounds are the flush size histogram bounds: powers of two
// from 1 to 1Mi updates.
func BatchSizeBounds() []uint64 {
	out := make([]uint64, 0, 21)
	for b := uint64(1); b <= 1<<20; b <<= 1 {
		out = append(out, b)
	}
	return out
}

// NewRecorder builds a recorder with the default bounds.
func NewRecorder() *Recorder {
	return &Recorder{
		BatchSize:    metrics.NewHistogram(BatchSizeBounds()),
		FlushLatency: metrics.NewHistogram(metrics.LatencyBounds()),
		ApplyLatency: metrics.NewHistogram(metrics.LatencyBounds()),
	}
}

// RecorderSnapshot is the JSON form of a Recorder — the "ingest" section of
// cmd/gtload's -metrics-out document.
type RecorderSnapshot struct {
	QueueDepth     int64                     `json:"queue_depth"`
	BatchSize      metrics.HistogramSnapshot `json:"batch_size_updates"`
	FlushLatencyNs metrics.HistogramSnapshot `json:"flush_latency_ns"`
	ApplyLatencyNs metrics.HistogramSnapshot `json:"apply_latency_ns"`
	Flushes        uint64                    `json:"flushes"`
	Rejected       uint64                    `json:"rejected"`
	Retries        uint64                    `json:"retries"`
	WorkerPanics   uint64                    `json:"worker_panics"`
	Dropped        uint64                    `json:"dropped"`
	WALFailures    uint64                    `json:"wal_failures"`
	DegradedShards int64                     `json:"degraded_shards"`
	DegradedMode   int64                     `json:"degraded_mode"`
}

// Snapshot copies the recorder's state; a nil recorder yields a zero
// snapshot.
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	return RecorderSnapshot{
		QueueDepth:     r.QueueDepth.Load(),
		BatchSize:      r.BatchSize.Snapshot(),
		FlushLatencyNs: r.FlushLatency.Snapshot(),
		ApplyLatencyNs: r.ApplyLatency.Snapshot(),
		Flushes:        r.Flushes.Load(),
		Rejected:       r.Rejected.Load(),
		Retries:        r.Retries.Load(),
		WorkerPanics:   r.WorkerPanics.Load(),
		Dropped:        r.Dropped.Load(),
		WALFailures:    r.WALFailures.Load(),
		DegradedShards: r.DegradedShards.Load(),
		DegradedMode:   r.DegradedMode.Load(),
	}
}
