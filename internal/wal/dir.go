package wal

// Dir owns one durability directory end to end:
//
//	dir/MANIFEST.json   snapshot ↔ WAL-offset binding (atomic install)
//	dir/snap-<lsn>.gts  the latest checkpoint (CRC-validated on load)
//	dir/wal/            segmented, checksummed log of every admitted op
//
// Every client — DurableStream, Session, replication.Follower — opens,
// checkpoints, bootstraps and recovers through this one type and supplies
// only what really differs: how its state is loaded and snapshotted, and
// whether a log that ends behind the checkpoint is an error or is
// discarded. The protocol (DESIGN.md §10 states it in full):
//
//   - Open: sweep stale temps → manifest → validated snapshot handed to the
//     caller's loader → log opened at the manifest's LSN → the
//     log-behind-checkpoint decision → replay of the tail past that LSN.
//   - Install (checkpoint and bootstrap alike): snapshot temp → fsync →
//     rename → dir fsync → manifest → then prune (checkpoint) or reset
//     (bootstrap) the log → GC older snapshots. A crash before the manifest
//     lands recovers to the previous checkpoint; after it, to the new one.
//
// A Dir is not safe for concurrent use: each client already serialises
// checkpoints against its own writes (ckptMu, the session mutex, the
// follower's single-flight stream), and that lock covers the Dir too.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"graphtinker/internal/core"
	"graphtinker/internal/faultinject"
)

const (
	snapPrefix = "snap-"
	snapSuffix = ".gts"

	checkpointTemp = ".snap-*"
	bootstrapTemp  = ".bootstrap-*"
)

// staleTemps are the temp-file patterns a killed install (or manifest
// write) can leave behind; no manifest ever references one.
var staleTemps = [...]string{checkpointTemp, bootstrapTemp, ".manifest-*"}

// CoveredLog says what OpenDir does with a log that ends below the
// manifest's LSN, i.e. one the snapshot wholly covers.
type CoveredLog bool

const (
	// RefuseCoveredLog fails the open: on a primary or a session the log
	// is the only record of ops past the checkpoint, so ending behind it
	// means acknowledged ops were lost.
	RefuseCoveredLog CoveredLog = false
	// DiscardCoveredLog resets the log at the manifest's LSN: a follower
	// killed between a bootstrap's manifest install and its log reset
	// legitimately holds the pre-bootstrap log.
	DiscardCoveredLog CoveredLog = true
)

// RecoveryInfo reports what opening a durability directory restored.
type RecoveryInfo struct {
	// Recovered is true when prior state (snapshot and/or WAL) was found.
	Recovered bool
	// SnapshotOps is the op count the loaded snapshot covered (its LSN).
	SnapshotOps uint64
	// ReplayedOps counts ops replayed from the WAL tail past the snapshot.
	ReplayedOps uint64
}

// LoadFunc builds the in-memory state recovery replays the log tail into.
// snap is the manifest's validated snapshot, or nil when the directory has
// none (m is then zero, or carries only an epoch and shard width).
type LoadFunc func(m Manifest, snap *os.File) (ReplayTarget, error)

// ParallelLoader is the LoadFunc for state held in a sharded store: the
// snapshot's own width when there is one, else the width an epoch-only
// manifest recorded (a promoted follower that never checkpointed keeps all
// its state in the log, partitioned at that width), else shards. The store
// lands in *store.
func ParallelLoader(cfg core.Config, shards int, store **core.Parallel) LoadFunc {
	return func(m Manifest, snap *os.File) (ReplayTarget, error) {
		var err error
		switch {
		case snap != nil:
			*store, err = core.ReadParallelSnapshot(snap, nil)
		case m.Shards > 0:
			*store, err = core.NewParallel(cfg, m.Shards)
		default:
			*store, err = core.NewParallel(cfg, shards)
		}
		if err != nil {
			return nil, fmt.Errorf("wal: dir: load: %w", err)
		}
		return *store, nil
	}
}

// Dir is an open durability directory.
type Dir struct {
	path string
	opts Options
	log  *Log
	m    Manifest // as installed, except Shards is always the live state's width
}

// OpenDir opens (or creates) the durability directory at path and
// recovers it: load builds the state from the checkpoint, then the log
// tail is replayed into it. On error nothing the loader built has been
// published; the caller releases it.
func OpenDir(path string, opts Options, covered CoveredLog, load LoadFunc) (*Dir, RecoveryInfo, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: dir: %w", err)
	}
	for _, pat := range staleTemps {
		stale, _ := filepath.Glob(filepath.Join(path, pat)) // a failed sweep only leaves garbage behind
		for _, s := range stale {
			os.Remove(s)
		}
	}
	m, _, err := LoadManifest(path)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	d := &Dir{path: path, opts: opts, m: m}

	var target ReplayTarget
	if m.Snapshot == "" {
		target, err = load(m, nil)
	} else {
		err = d.LoadSnapshot(func(snap *os.File) error {
			var lerr error
			target, lerr = load(m, snap)
			return lerr
		})
	}
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	d.m.Shards = target.NumShards()

	if err := d.openLog(); err != nil {
		return nil, RecoveryInfo{}, err
	}
	if next := d.log.NextLSN(); next < m.LastLSN {
		if covered == RefuseCoveredLog {
			_ = d.log.Close() // abandoning open; the recovery error below is the signal
			return nil, RecoveryInfo{}, fmt.Errorf("wal: dir: log ends at LSN %d but manifest snapshot covers %d (log lost behind checkpoint)", next, m.LastLSN)
		}
		if err := d.resetLog(); err != nil {
			return nil, RecoveryInfo{}, err
		}
	}
	next, err := ReplayInto(d.logPath(), m.LastLSN, opts.Recorder, target)
	if err != nil {
		_ = d.log.Close() // abandoning open; the replay error is the signal
		return nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{SnapshotOps: m.LastLSN, ReplayedOps: next - m.LastLSN}
	info.Recovered = m.Snapshot != "" || info.ReplayedOps > 0
	return d, info, nil
}

func (d *Dir) logPath() string { return filepath.Join(d.path, "wal") }

// openLog opens the log, positioning an empty one at the manifest's LSN.
func (d *Dir) openLog() (err error) {
	d.opts.InitialLSN = d.m.LastLSN
	d.log, err = Open(d.logPath(), d.opts)
	return err
}

func snapName(lsn uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix) }

// Log is the directory's open write-ahead log. A bootstrap replaces it,
// so callers that outlive one re-fetch rather than cache.
func (d *Dir) Log() *Log { return d.log }

// Epoch is the replication term the installed manifest records.
func (d *Dir) Epoch() uint64 { return d.m.Epoch }

// LoadSnapshot validates the installed manifest's snapshot (size +
// CRC32-C) and hands it to load, closing it afterwards.
func (d *Dir) LoadSnapshot(load func(snap *os.File) error) error {
	f, err := OpenManifestSnapshot(d.path, d.m)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read-only; load's error is the signal
	return load(f)
}

// SnapshotWriter is the sink an install hands its fill callback: bytes go
// to the snapshot temp file while the CRC32-C and size the manifest will
// record accumulate, so a caller that knows what to expect (a bootstrap
// checking the primary's header) can validate before the install commits.
type SnapshotWriter struct {
	f    *os.File
	crc  uint32
	size int64
}

func (w *SnapshotWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p[:n])
	w.size += int64(n)
	return n, err
}

// Sum returns the CRC32-C and byte count of everything written so far.
func (w *SnapshotWriter) Sum() (crc uint32, size int64) { return w.crc, w.size }

// install is the one snapshot-install sequence: fill a temp file, make it
// durable under its final name, then bind it to lsn in the manifest. The
// wal/dir-install failpoint sits in both crash windows — after the
// snapshot rename (previous checkpoint still installed) and after the
// manifest (new one installed, log not yet pruned or reset).
func (d *Dir) install(tempPattern string, lsn uint64, shards int, fill func(*SnapshotWriter) error) error {
	tmp, err := os.CreateTemp(d.path, tempPattern)
	if err != nil {
		return fmt.Errorf("wal: dir: install snapshot: %w", err)
	}
	w := &SnapshotWriter{f: tmp}
	if err = fill(w); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	name := snapName(lsn)
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(d.path, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: dir: install snapshot: %w", err)
	}
	// The directory fsync is what makes the rename durable; without it the
	// manifest below could outlive the snapshot it names.
	if err := syncDir(d.path); err != nil {
		return err
	}
	if err := faultinject.Inject("wal/dir-install"); err != nil {
		return fmt.Errorf("wal: dir: install snapshot: %w", err)
	}
	m := Manifest{
		Snapshot:      name,
		LastLSN:       lsn,
		SnapshotCRC:   w.crc,
		SnapshotBytes: w.size,
		Shards:        shards,
		Epoch:         d.m.Epoch,
	}
	if err := WriteManifest(d.path, m); err != nil {
		return err
	}
	d.m = m
	if err := faultinject.Inject("wal/dir-install"); err != nil {
		return fmt.Errorf("wal: dir: install snapshot: %w", err)
	}
	return nil
}

// Checkpoint installs a snapshot covering ops [0, lsn) and prunes the log
// segments it made redundant. The caller has quiesced its writers and
// made the log durable up to lsn; write serialises its state.
func (d *Dir) Checkpoint(lsn uint64, write func(w io.Writer) error) error {
	if err := d.install(checkpointTemp, lsn, d.m.Shards, func(w *SnapshotWriter) error { return write(w) }); err != nil {
		return err
	}
	if _, err := d.log.Prune(lsn); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	d.removeStaleSnapshots()
	return nil
}

// InstallSnapshot replaces the directory's contents with a snapshot
// received from elsewhere (a replication bootstrap): install it at lsn,
// then reset the log there — everything in the old log is below lsn,
// hence covered. A crash between the two leaves a covered log, which
// OpenDir(DiscardCoveredLog) repairs.
func (d *Dir) InstallSnapshot(lsn uint64, shards int, fill func(*SnapshotWriter) error) error {
	if err := d.install(bootstrapTemp, lsn, shards, fill); err != nil {
		return err
	}
	if err := d.resetLog(); err != nil {
		return err
	}
	d.removeStaleSnapshots()
	return nil
}

// resetLog closes and discards the log and opens an empty one positioned
// at the manifest's LSN.
func (d *Dir) resetLog() error {
	if err := d.log.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(d.logPath()); err != nil {
		return fmt.Errorf("wal: dir: reset log: %w", err)
	}
	return d.openLog()
}

// removeStaleSnapshots deletes every snapshot but the installed one. A
// failed remove is not a correctness problem (the manifest names the live
// snapshot), but silently eating it hides stuck GC — disk filling with
// dead checkpoints — so failures are counted on the WAL recorder where
// operators already look.
func (d *Dir) removeStaleSnapshots() {
	matches, _ := filepath.Glob(filepath.Join(d.path, snapPrefix+"*"+snapSuffix)) // a failed GC only leaves garbage behind
	for _, m := range matches {
		if filepath.Base(m) == d.m.Snapshot {
			continue
		}
		if err := os.Remove(m); err != nil && !errors.Is(err, os.ErrNotExist) && d.opts.Recorder != nil {
			d.opts.Recorder.SnapshotGCFailures.Inc()
		}
	}
}

// SetEpoch durably records a new replication term in the manifest,
// preserving whatever checkpoint it binds.
func (d *Dir) SetEpoch(epoch uint64) error {
	m := d.m
	m.Epoch = epoch
	if err := WriteManifest(d.path, m); err != nil {
		return err
	}
	d.m = m
	return nil
}

// Close syncs and closes the log.
func (d *Dir) Close() error { return d.log.Close() }

// Crash abandons the log the way a killed process would (see Log.Crash).
func (d *Dir) Crash() { d.log.Crash() }
