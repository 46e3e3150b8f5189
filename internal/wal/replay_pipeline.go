package wal

// Pipelined WAL replay. Replay decodes records on the calling goroutine;
// ReplayInto overlaps that decode with shard-partitioned application:
// decoded ops accumulate into a per-shard partition scratch, and once a
// generation fills it is handed to per-shard apply workers while the
// decoder keeps reading the next one. Two part-sets double-buffer the
// pipeline — the decoder fills one while the workers drain the other —
// so the scratch is reused for the whole replay and the steady state
// allocates nothing per record.
//
// Ordering: ops for one source always land in the same shard (the
// partition function is per-src) and each shard's worker consumes its
// channel FIFO in generation order, so the per-(src,dst) apply order of
// the log is preserved — the only order that matters for convergence.

import (
	"sync"

	"graphtinker/internal/core"
)

// ReplayTarget is the sharded write surface: the three-method sink that
// pipelined replay fans out to and that ingest.Pipeline drains into
// (ingest.Target is an alias of this type, so the contract is declared
// once). core.Parallel satisfies it directly; single-instance stores adapt
// with a one-shard facade.
type ReplayTarget interface {
	// NumShards reports how many independent write domains exist.
	NumShards() int
	// ShardOf routes a source vertex to its write domain.
	ShardOf(src uint64) int
	// ApplyShard applies an ordered op sequence to one shard, returning
	// how many inserts were new and how many deletes hit a live edge. It
	// must tolerate concurrent calls for DIFFERENT shards (never the same
	// shard). The ops slice is valid only for the duration of the call —
	// it is the caller's recycled partition scratch or sub-batch buffer —
	// so implementations must copy anything they keep.
	//
	//gtlint:noretain ops
	ApplyShard(shard int, ops []core.EdgeOp) (inserted, deleted int)
}

// replayDispatchOps is the generation size: how many decoded ops
// accumulate in the partition scratch before it is handed to the apply
// workers. Big enough to amortize the channel handoff, small enough that
// decode and apply genuinely overlap on multi-record logs.
const replayDispatchOps = 4096

// ReplayInto streams the log's ops at or beyond fromLSN into target,
// partitioned by shard and applied by per-shard workers concurrently with
// the decode. It returns the LSN after the last replayed op, exactly like
// Replay. OpenDir is its one production caller, which is how every
// recovery — stream reopen, Session.Recover, follower catch-up — rides it.
func ReplayInto(dir string, fromLSN uint64, rec *Recorder, target ReplayTarget) (uint64, error) {
	n := target.NumShards()
	if n <= 1 {
		// One shard: fan-out buys nothing, apply inline on the decoder.
		return Replay(dir, fromLSN, rec, func(lsn uint64, ops []core.EdgeOp) error {
			target.ApplyShard(0, ops)
			return nil
		})
	}

	// Double-buffered partition scratch: parts[cur] is being filled by the
	// decoder, the other set is owned by the in-flight generation's
	// workers until applyWG drains.
	var parts [2][][]core.EdgeOp
	parts[0] = make([][]core.EdgeOp, n)
	parts[1] = make([][]core.EdgeOp, n)
	chans := make([]chan []core.EdgeOp, n)
	var applyWG sync.WaitGroup  // outstanding per-shard applies of one generation
	var workerWG sync.WaitGroup // worker goroutine lifetimes
	for i := range chans {
		chans[i] = make(chan []core.EdgeOp, 1)
		workerWG.Add(1)
		go func(shard int) {
			defer workerWG.Done()
			for ops := range chans[shard] {
				target.ApplyShard(shard, ops)
				applyWG.Done()
			}
		}(i)
	}

	cur, filled := 0, 0
	dispatch := func() {
		if filled == 0 {
			return
		}
		// The previous generation must be fully applied before its buffers
		// (the set we are about to flip into) can be refilled.
		applyWG.Wait()
		for s, part := range parts[cur] {
			if len(part) > 0 {
				applyWG.Add(1)
				chans[s] <- part
			}
		}
		cur ^= 1
		for s := range parts[cur] {
			parts[cur][s] = parts[cur][s][:0]
		}
		filled = 0
	}

	next, err := Replay(dir, fromLSN, rec, func(lsn uint64, ops []core.EdgeOp) error {
		for _, op := range ops {
			s := target.ShardOf(op.Src)
			parts[cur][s] = append(parts[cur][s], op)
		}
		filled += len(ops)
		if filled >= replayDispatchOps {
			dispatch()
		}
		return nil
	})
	if err == nil {
		dispatch() // final partial generation
	}
	applyWG.Wait()
	for _, ch := range chans {
		close(ch)
	}
	workerWG.Wait()
	return next, err
}
