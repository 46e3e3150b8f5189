package graphtinker

// Durable sessions: the batch-analytics path's crash safety. A durable
// session logs every batch's ops (inserts, then deletes — the one slice
// applyBatchLocked then applies) to a WAL before touching the graph, so a
// batch is acknowledged only once the log covers it. Recover rebuilds a
// session from the directory: manifest-validated snapshot, then an
// idempotent replay of the WAL tail. The directory itself is a wal.Dir,
// the same one DurableStream and replication followers use; the session
// supplies its single graph behind a one-shard replay target, so its
// manifest records Shards = 1.

import (
	"fmt"
	"os"

	"graphtinker/internal/core"
	"graphtinker/internal/wal"
)

// sessionDurability is the durable state attached to a session. All access
// is under the session mutex.
type sessionDurability struct {
	dir  *wal.Dir
	opts DurabilityOptions

	sinceCkpt uint64
	failed    bool // a WAL write failed; further batches are refused
	info      RecoveryInfo
}

// sessionReplayTarget is a session's single graph as a replay target: one
// shard.
type sessionReplayTarget struct{ *core.GraphTinker }

func (sessionReplayTarget) NumShards() int { return 1 }

// openSessionDir opens dir as a session durability directory and recovers
// whatever it holds into a new graph — never the live one, so a failed
// open leaves the session exactly as it was.
func (s *Session) openSessionDir(dir string, opts DurabilityOptions) (*sessionDurability, *Graph, error) {
	var g *Graph
	d, info, err := wal.OpenDir(dir, opts.walOptions(), wal.RefuseCoveredLog,
		func(_ wal.Manifest, snap *os.File) (wal.ReplayTarget, error) {
			var err error
			if snap != nil {
				g, err = core.ReadSnapshot(snap, nil)
			} else {
				g, err = core.New(s.graph.Config())
			}
			if err != nil {
				return nil, fmt.Errorf("graphtinker: recover: %w", err)
			}
			return sessionReplayTarget{g}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	return &sessionDurability{dir: d, opts: opts, info: RecoveryInfo(info)}, g, nil
}

// appendOps logs one batch's ops. The first append failure degrades the
// session: later batches must not be acknowledged past an unlogged one, or
// the WAL would stop being a prefix of the acknowledged stream and
// recovery would resurrect the refused batch.
//
//gtlint:noretain ops
func (d *sessionDurability) appendOps(ops []Update) error {
	if d.failed {
		return ErrDurabilityDegraded
	}
	if len(ops) == 0 {
		return nil
	}
	if _, err := d.dir.Log().Append(ops); err != nil {
		d.failed = true
		return fmt.Errorf("graphtinker: durable session: batch not applied: %w", err)
	}
	return nil
}

// EnableDurability makes the session crash-safe from here on: every
// subsequent batch is WAL-logged before it is applied, and Checkpoint
// compacts the log into a snapshot. The directory must not already hold
// recovery state (use Recover for that), and the session must not have
// applied unlogged batches. A session whose graph already has edges (built
// before enabling) is checkpointed immediately, so that prior state is
// covered too.
func (s *Session) EnableDurability(dir string, opts DurabilityOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return fmt.Errorf("graphtinker: session durability already enabled")
	}
	if s.batches > 0 {
		return fmt.Errorf("graphtinker: session has already applied %d unlogged batches; enable durability before applying, or Recover into a fresh session", s.batches)
	}
	d, _, err := s.openSessionDir(dir, opts)
	if err != nil {
		return err
	}
	if next := d.dir.Log().NextLSN(); d.info.Recovered || next > 0 {
		_ = d.dir.Close() // abandoning open; the misuse error below is the signal
		return fmt.Errorf("graphtinker: %s already holds recovery state (%d logged ops); use Session.Recover", dir, next)
	}
	s.dur = d
	if s.graph.NumEdges() > 0 {
		// Pre-existing edges are not in the log; bake them into an
		// immediate LSN-0 checkpoint so recovery starts from them.
		if err := s.checkpointLocked(); err != nil {
			_ = d.dir.Close() // abandoning enable; the checkpoint error is the signal
			s.dur = nil
			return err
		}
	}
	return nil
}

// Recover rebuilds the session's graph from a durability directory —
// manifest-validated snapshot plus an idempotent replay of the WAL tail
// (ops the snapshot already covers are never re-applied) — and leaves the
// session durable against the same directory. The session must be fresh:
// no applied batches, no attached programs (they would reference the
// replaced graph), durability not yet enabled. An empty directory recovers
// to an empty graph and is equivalent to EnableDurability.
func (s *Session) Recover(dir string) (RecoveryInfo, error) {
	return s.RecoverWithOptions(dir, DurabilityOptions{})
}

// RecoverWithOptions is Recover with an explicit WAL/checkpoint policy for
// the session's continued operation.
func (s *Session) RecoverWithOptions(dir string, opts DurabilityOptions) (RecoveryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return RecoveryInfo{}, fmt.Errorf("graphtinker: session durability already enabled")
	}
	if s.batches > 0 || s.graph.NumEdges() > 0 {
		return RecoveryInfo{}, fmt.Errorf("graphtinker: Recover requires a fresh session (graph already has state)")
	}
	if len(s.engines) > 0 {
		return RecoveryInfo{}, fmt.Errorf("graphtinker: Recover requires no attached programs (attach after recovery)")
	}
	d, g, err := s.openSessionDir(dir, opts)
	if err != nil {
		return RecoveryInfo{}, err
	}
	if s.rec != nil {
		g.Instrument(s.rec)
	}
	s.graph, s.dur = g, d
	return d.info, nil
}

// Checkpoint fsyncs the log and atomically installs a snapshot + manifest
// covering every op logged so far, then prunes redundant WAL segments.
func (s *Session) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return fmt.Errorf("graphtinker: session durability not enabled")
	}
	return s.checkpointLocked()
}

func (s *Session) checkpointLocked() error {
	d := s.dur
	if d.failed {
		// A degraded log may hold a torn tail; snapshotting in-memory state
		// the log doesn't cover (and pruning it) would make the loss
		// permanent.
		return ErrDurabilityDegraded
	}
	log := d.dir.Log()
	if err := log.Sync(); err != nil {
		return fmt.Errorf("graphtinker: checkpoint: %w", err)
	}
	if err := d.dir.Checkpoint(log.NextLSN(), s.graph.WriteSnapshot); err != nil {
		return err
	}
	d.sinceCkpt = 0
	return nil
}

// DurabilityInfo reports the session's recovery provenance (zero when
// durability is off or the directory was fresh).
func (s *Session) DurabilityInfo() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return RecoveryInfo{}
	}
	return s.dur.info
}

// CloseDurability fsyncs and closes the session's WAL and detaches it;
// subsequent batches apply without logging. No-op when durability is off.
func (s *Session) CloseDurability() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return nil
	}
	err := s.dur.dir.Close()
	s.dur = nil
	return err
}

// CrashDurability abandons the WAL the way a killed process would —
// buffers dropped, nothing synced — and detaches durability. Only ops
// already durable survive a subsequent Recover. Built for the chaos suite.
func (s *Session) CrashDurability() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return
	}
	s.dur.dir.Crash()
	s.dur = nil
}
