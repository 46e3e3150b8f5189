package wal

// Batched WAL replay. Replay hands each decoded record to a callback;
// ReplayInto gathers the records into one reused buffer of
// replayDispatchOps ops and applies each full buffer with one ApplyOps
// call. A sharded target spreads each call over its shards on the
// process's apply helper pool (core.Parallel.ApplyOps), so replay needs
// no workers of its own, and the buffer is the only scratch it keeps:
// the steady state allocates nothing per record.
//
// Ordering: ops reach the target in log order, which preserves the
// per-(src,dst) apply order — the only order that matters for
// convergence — whatever the target does within one call.

import "graphtinker/internal/core"

// ReplayTarget is the state a log tail replays into, and the target an
// ingest pipeline drains into (ingest.Target is this interface).
// core.Parallel and a lone core.GraphTinker wrapped with a shard count
// both satisfy it.
type ReplayTarget interface {
	// NumShards reports the target's shard width, which OpenDir records
	// in the manifest.
	NumShards() int
	// ApplyOps applies an ordered op sequence, returning how many inserts
	// were new and how many deletes hit a live edge. The ops slice is the
	// caller's recycled buffer (replay's, or a pipeline's flush), valid
	// only for the duration of the call, so implementations must copy
	// anything they keep.
	//
	//gtlint:noretain ops
	ApplyOps(ops []core.EdgeOp) (inserted, deleted int)
}

// replayDispatchOps is how many decoded ops one ApplyOps call carries:
// enough for a sharded target to split every shard's share across the
// helper pool.
const replayDispatchOps = 4096

// ReplayInto streams the log's ops at or beyond fromLSN into target, in
// calls of replayDispatchOps ops. It returns the LSN after the last
// replayed op, exactly like Replay. OpenDir is its one production caller,
// which is how every recovery — stream reopen, Session.Recover, follower
// catch-up — rides it.
func ReplayInto(dir string, fromLSN uint64, rec *Recorder, target ReplayTarget) (uint64, error) {
	buf := make([]core.EdgeOp, 0, replayDispatchOps)
	next, err := Replay(dir, fromLSN, rec, func(_ uint64, ops []core.EdgeOp) error {
		for len(ops) > 0 {
			n := copy(buf[len(buf):cap(buf)], ops)
			buf, ops = buf[:len(buf)+n], ops[n:]
			if len(buf) == cap(buf) {
				target.ApplyOps(buf)
				buf = buf[:0]
			}
		}
		return nil
	})
	if err == nil && len(buf) > 0 {
		target.ApplyOps(buf)
	}
	return next, err
}
