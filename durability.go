package graphtinker

// Durability layer: crash-safe persistence for the streaming store. A
// durability directory holds three things —
//
//	dir/MANIFEST.json   snapshot ↔ WAL-offset binding (atomic install)
//	dir/snap-<lsn>.gts  the latest checkpoint (CRC-validated on load)
//	dir/wal/            segmented, checksummed log of every admitted op
//
// The invariant the whole layer rests on: the WAL is an exact prefix of
// the acknowledged op stream (appends happen under the pipeline lock in
// push order), and a checkpoint at LSN n captures exactly ops [0, n). So
// recovery = load snapshot + replay ops [n, NextLSN), and no op is ever
// applied twice — records straddling n are sliced, not re-applied.
//
// The directory itself — open, recover, checkpoint install, GC — is owned
// by internal/wal.Dir. This file is one of its three clients, DurableStream
// (sharded raw-throughput ingestion over a Parallel store); the session
// batch path in session_durability.go and replication followers are the
// other two.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphtinker/internal/ingest"
	"graphtinker/internal/wal"
)

// ErrStreamDegraded is returned by durable pushes once the pipeline has
// lost its durability guarantee (persistent WAL failure), and by flushes
// once a contained apply panic or exhausted apply retries have degraded
// the pipeline; see StreamTotals for the breakdown.
var ErrStreamDegraded = ingest.ErrDegraded

// ErrStreamTimeout is returned when a flush or close barrier misses its
// configured deadline.
var ErrStreamTimeout = ingest.ErrTimeout

// ErrDurabilityDegraded is returned by durable-session batches (and
// Checkpoint) after a WAL write has failed: accepting further batches
// would break the WAL-is-a-prefix-of-acknowledged-batches invariant
// recovery depends on. Recover from the directory to resume.
var ErrDurabilityDegraded = errors.New("graphtinker: durability degraded (WAL write failed); recover from the directory to resume")

// WALRecorder carries the WAL telemetry instruments (fsync latency,
// segment bytes, appended/replayed/truncated counters).
type WALRecorder = wal.Recorder

// WALRecorderSnapshot is the JSON form of a WALRecorder — the "wal"
// section of cmd/gtload's -metrics-out document.
type WALRecorderSnapshot = wal.RecorderSnapshot

// NewWALRecorder builds a WAL recorder with the default bounds.
func NewWALRecorder() *WALRecorder { return wal.NewRecorder() }

// DurabilityOptions tunes the WAL and checkpoint policy; zero values
// select the defaults.
type DurabilityOptions struct {
	// SyncInterval is the WAL group-commit policy: 0 fsyncs every append
	// (safest, slowest), > 0 runs a background flusher at that period
	// (bounded loss window), < 0 fsyncs only at flush/close barriers and
	// checkpoints (fastest; an unclean death loses everything since the
	// last barrier).
	SyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold (default 16 MiB).
	SegmentBytes int64
	// SnapshotEvery, when > 0, auto-checkpoints after that many admitted
	// ops (0 = checkpoint only on explicit Checkpoint calls).
	SnapshotEvery uint64
	// Recorder, when non-nil, receives the WAL telemetry.
	Recorder *WALRecorder
}

// RecoveryInfo reports what opening a durability directory restored.
type RecoveryInfo struct {
	// Recovered is true when prior state (snapshot and/or WAL) was found.
	Recovered bool `json:"recovered"`
	// SnapshotOps is the op count the loaded snapshot covered (its LSN).
	SnapshotOps uint64 `json:"snapshot_ops"`
	// ReplayedOps counts ops replayed from the WAL tail past the snapshot.
	ReplayedOps uint64 `json:"replayed_ops"`
}

// walOptions is the log configuration these options select.
func (o DurabilityOptions) walOptions() wal.Options {
	return wal.Options{SegmentBytes: o.SegmentBytes, SyncInterval: o.SyncInterval, Recorder: o.Recorder}
}

// DurableStreamOptions configures OpenDurableStream.
type DurableStreamOptions struct {
	// Shards is the Parallel store width for a fresh directory (default 4).
	// Recovery uses the snapshot's stored width instead.
	Shards int
	// Pipeline tunes batching/backpressure; its WAL field is managed by the
	// durable stream and must be left nil.
	Pipeline StreamPipelineOptions
	// Durability tunes the WAL and checkpoint policy.
	Durability DurabilityOptions
}

// DurableStream is a crash-safe streaming ingestion front over a sharded
// store: every admitted op is WAL-logged before it is applied, Flush is an
// acknowledged-means-durable barrier, Checkpoint compacts the log into a
// snapshot, and reopening the same directory recovers exactly the logged
// prefix of the stream. Safe for concurrent producers.
type DurableStream struct {
	dir   *wal.Dir
	store *Parallel
	pipe  *StreamPipeline
	opts  DurableStreamOptions
	info  RecoveryInfo

	// ckptMu serializes checkpoints against admission: pushes hold it
	// shared, Checkpoint/Close/Crash exclusively — so a checkpoint's LSN
	// exactly bounds the snapshot's contents.
	ckptMu    sync.RWMutex
	sinceCkpt atomic.Uint64
	epoch     uint64 // replication term from the manifest that recovered the stream
	ckptErr   error  // outcome of the most recent checkpoint attempt
	closed    bool
}

// OpenDurableStream opens (or creates) the durability directory and
// returns a ready stream: prior state is recovered — manifest-validated
// snapshot, then idempotent WAL-tail replay — before any new op is
// admitted. The returned stream owns the store, the log and the pipeline;
// Close releases all three.
func OpenDurableStream(cfg Config, dir string, opts DurableStreamOptions) (*DurableStream, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.Pipeline.WAL != nil {
		return nil, fmt.Errorf("graphtinker: durable stream: Pipeline.WAL is managed internally; leave it nil")
	}

	var store *Parallel
	d, info, err := wal.OpenDir(dir, opts.Durability.walOptions(), wal.RefuseCoveredLog,
		wal.ParallelLoader(cfg, opts.Shards, &store))
	if err != nil {
		return nil, err
	}

	popts := opts.Pipeline
	popts.WAL = d.Log()
	pipe, err := NewStreamPipeline(store, popts)
	if err != nil {
		_ = d.Close() // abandoning open; the pipeline error is the signal
		return nil, err
	}
	return &DurableStream{
		dir:   d,
		store: store,
		pipe:  pipe,
		opts:  opts,
		info:  RecoveryInfo(info),
		epoch: d.Epoch(),
	}, nil
}

// Recovery reports what opening the directory restored.
func (d *DurableStream) Recovery() RecoveryInfo { return d.info }

// Store exposes the underlying sharded store for queries; mutate only
// through the stream so the WAL stays a faithful prefix.
func (d *DurableStream) Store() *Parallel { return d.store }

// NextLSN is the durable stream position: the number of ops the WAL has
// accepted so far.
func (d *DurableStream) NextLSN() uint64 { return d.dir.Log().NextLSN() }

// Epoch is the stream's replication term, from the manifest that
// recovered it (0 for a directory that was never part of a promotion).
func (d *DurableStream) Epoch() uint64 { return d.epoch }

// Totals snapshots the pipeline's lifetime counters.
func (d *DurableStream) Totals() StreamTotals { return d.pipe.Totals() }

// Push admits one op; PushBatch a sequence. ErrStreamDegraded is returned
// once durability is lost.
func (d *DurableStream) Push(u Update) error { return d.PushBatch([]Update{u}) }

// PushBatch admits ops in order, then (when SnapshotEvery is set) runs an
// auto-checkpoint if the period has elapsed. A nil return means the ops
// were admitted: they reach the WAL at the pipeline's next flush (by
// size, by the flush timer, or at a barrier) and are durable once Flush
// returns. An auto-checkpoint failure is NOT returned here (the ops are
// admitted regardless — returning it would invite a double-applying
// retry) but is reported via LastCheckpointErr.
func (d *DurableStream) PushBatch(ops []Update) error {
	d.ckptMu.RLock()
	err := d.pipe.PushBatch(ops)
	d.ckptMu.RUnlock()
	if err != nil {
		return err
	}
	if every := d.opts.Durability.SnapshotEvery; every > 0 {
		if d.sinceCkpt.Add(uint64(len(ops))) >= every {
			_ = d.checkpoint(every) // outcome recorded; see LastCheckpointErr
		}
	}
	return nil
}

// LastCheckpointErr reports the outcome of the most recent checkpoint
// attempt, explicit or automatic — nil after a success (or before any
// attempt). It is how auto-checkpoint failures surface, since PushBatch
// deliberately does not return them.
func (d *DurableStream) LastCheckpointErr() error {
	d.ckptMu.RLock()
	defer d.ckptMu.RUnlock()
	return d.ckptErr
}

// Flush is the acknowledged-means-durable barrier: it returns once every
// op admitted before the call has been applied to its shard and fsynced in
// the WAL.
func (d *DurableStream) Flush() error { return d.pipe.FlushSync() }

// Checkpoint quiesces admission, drains and fsyncs everything admitted,
// snapshots the store, atomically installs a manifest binding the snapshot
// to the current WAL position, and prunes log segments the snapshot made
// redundant. A degraded pipeline refuses to checkpoint: baking a partial
// state into a snapshot (and pruning the log that could repair it) would
// turn a transient loss into a permanent one.
func (d *DurableStream) Checkpoint() error { return d.checkpoint(0) }

// checkpoint runs a checkpoint unless fewer than atLeast ops have been
// admitted since the last one. Checkpoint passes 0: unconditional. The
// auto path passes SnapshotEvery, re-checked here under ckptMu: of several
// producers that crossed the threshold together, the ones that queued
// behind the first one's checkpoint find the count reset and return,
// where they used to write a second full snapshot of the same state with
// admission closed.
func (d *DurableStream) checkpoint(atLeast uint64) error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed {
		return ErrStreamClosed
	}
	if d.sinceCkpt.Load() < atLeast {
		return nil
	}
	// ckptMu exists to serialize checkpoints; holding it across the
	// drain+fsync+install sequence is its whole job.
	err := d.checkpointNowLocked()
	d.ckptErr = err
	return err
}

func (d *DurableStream) checkpointNowLocked() error {
	if err := d.pipe.FlushSync(); err != nil {
		return err
	}
	if err := d.dir.Checkpoint(d.NextLSN(), d.store.WriteSnapshot); err != nil {
		return err
	}
	d.sinceCkpt.Store(0)
	return nil
}

// Close drains the pipeline, fsyncs and closes the WAL, and shuts the
// stream down. It does not checkpoint; call Checkpoint first to compact
// the log (recovery replays the un-checkpointed tail either way).
func (d *DurableStream) Close() (StreamTotals, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed {
		return d.pipe.Totals(), ErrStreamClosed
	}
	d.closed = true
	tot, err := d.pipe.Close()
	if cerr := d.dir.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return tot, err
}

// Crash abandons the stream the way a killed process would: queued work is
// discarded, WAL buffers are dropped without flushing, nothing is synced.
// Only ops already durable in the log survive a subsequent
// OpenDurableStream. Built for the chaos suite.
func (d *DurableStream) Crash() {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.pipe.Abort()
	d.dir.Crash()
}
