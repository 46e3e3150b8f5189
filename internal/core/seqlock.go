package core

// Seqlock read path for the sharded store (ROADMAP item 4). Each shard of
// a Parallel holds TWO replicas of its GraphTinker instance plus an atomic
// version counter. The counter is the classic seqlock discipline — odd
// while a writer is publishing, even otherwise, readers retry on a torn
// observation — but instead of re-reading mutable memory (which the race
// detector would rightly flag), bit 1 of the version selects which replica
// readers may enter. Writers apply each batch to the off replica, flip the
// version, wait out the reader grace period on the stale replica, and
// replay the batch there so the two copies reconverge.
//
// Reader protocol (pinRead/unpin):
//
//	s := seq.Load()          // retry while odd: publication in progress
//	pins[idx(s)].Add(1)      // announce presence on the version's replica
//	seq.Load() == s ?        // validate; a torn pin means a publication
//	                         // raced the pin — back out and retry
//	... read inst[idx(s)] ...
//	pins[idx(s)].Add(-1)     // deferred, so a panicking callback cannot
//	                         // leak the pin and wedge writers
//
// Writer protocol (under the shard's writer mutex, Parallel.wmu):
//
//	shadow := shadowLocked() // drain stragglers, return the off replica
//	apply batch to shadow    // records stats + recorder samples
//	stale := publishLocked() // seq += 1 (odd), seq += 1 (even: flips the
//	                         // replica index), drain the old replica's
//	                         // pins, silence its counters/recorder
//	apply batch to stale     // catch-up replay, observed by nobody
//	restoreLocked()          // reattach counters/recorder
//
// Readers never block on a batch apply — the only wait they can observe is
// the two-store publication window. Writers inherit the reader grace
// period instead: the catch-up replay waits until the last reader pinned
// to the stale replica unpins. A validated pin therefore guarantees the
// pinned replica is not mutated until the pin is released, which is what
// makes the scheme clean under the race detector: readers touch graph
// memory only inside a validated pin, and writers touch it only after a
// drain.
//
// Every logical operation lands in exactly one replica's owned counters:
// writes are recorded by the first (shadow) apply and replayed silently,
// reads are recorded by the replica that was active. Merging both
// replicas' counters (statsSnapshot) therefore counts each operation once.
//
// This file is the only place allowed to touch shardCtl.inst directly;
// the gtlint seqlockfence check enforces that everything else goes through
// pinRead or the quiesced accessor.

import (
	"runtime"
	"sync/atomic"
	"time"

	"graphtinker/internal/metrics"
)

// shardCtl is one shard's seqlock state: the version counter, the two
// replicas, and a reader pin count per replica.
type shardCtl struct {
	// seq is the shard's version: odd while a writer is publishing a
	// freshly written replica, even otherwise. (seq>>1)&1 indexes the
	// replica readers of that version may pin.
	seq atomic.Uint64

	// inst are the two replicas. inst[(seq>>1)&1] is the active (readable)
	// one; the other is the shadow the next batch applies to first.
	inst [2]*GraphTinker

	// pins[i] counts readers currently announced on inst[i]. A writer may
	// mutate inst[i] only after observing pins[i] == 0 past a version flip
	// that routes new readers elsewhere.
	pins [2]atomic.Int64

	// scratch absorbs the counter increments of catch-up replays so every
	// logical operation lands in exactly one replica's owned counters.
	scratch statsCounters
}

// init builds the two replicas.
func (sc *shardCtl) init(cfg Config) {
	sc.inst[0] = MustNew(cfg)
	sc.inst[1] = MustNew(cfg)
}

// activeIdx returns the replica index the current version routes readers
// to.
func (sc *shardCtl) activeIdx() uint32 { return uint32(sc.seq.Load()>>1) & 1 }

// pinRead enters the read-side critical section: it returns the active
// replica with its pin held. The caller must release with unpin(idx) —
// deferred, so a panicking callback cannot leak the pin. Wait-free except
// for the nanosecond-scale publication window (odd version) and the torn-
// pin retry, both bounded by a single in-flight publication.
func (sc *shardCtl) pinRead() (*GraphTinker, uint32) {
	for spins := 0; ; spins++ {
		s := sc.seq.Load()
		if s&1 == 0 {
			idx := uint32(s>>1) & 1
			sc.pins[idx].Add(1)
			if sc.seq.Load() == s {
				return sc.inst[idx], idx
			}
			// Torn pin: a publication flipped the active replica between
			// the version snapshot and the pin. The graph was never
			// touched; back out and retry on the new version.
			sc.pins[idx].Add(-1)
		}
		if spins > 8 {
			runtime.Gosched()
		}
	}
}

// unpin leaves the read-side critical section entered by pinRead.
func (sc *shardCtl) unpin(idx uint32) { sc.pins[idx].Add(-1) }

// drain waits until no reader is pinned to inst[idx]. Termination: the
// current version routes new readers to the other replica (or an
// unvalidated straggler backs out without reading), so the pin count can
// only fall.
func (sc *shardCtl) drain(idx uint32) {
	for spins := 0; sc.pins[idx].Load() != 0; spins++ {
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// shadowLocked returns the off replica, drained of stragglers whose pin
// pre-dates the last flip (they are about to fail validation and back
// out). Caller holds the shard's writer mutex.
func (sc *shardCtl) shadowLocked() *GraphTinker {
	idx := sc.activeIdx() ^ 1
	sc.drain(idx)
	return sc.inst[idx]
}

// publishLocked flips readers onto the freshly written shadow replica and
// returns the stale one, drained and silenced for the catch-up replay.
// Caller holds the shard's writer mutex and has finished writing the
// shadow.
func (sc *shardCtl) publishLocked() (*GraphTinker, uint32) {
	s := sc.seq.Load()
	sc.seq.Store(s + 1) // odd: publication in progress, readers hold off
	sc.seq.Store(s + 2) // even again; (seq>>1)&1 now selects the shadow
	idx := uint32(s>>1) & 1
	sc.drain(idx)
	stale := sc.inst[idx]
	stale.stats = &sc.scratch
	stale.rec = nil
	return stale, idx
}

// restoreLocked reattaches the stale replica's owned counters and shared
// recorder after its catch-up replay, before the writer mutex is
// released. The recorder is recovered from the sibling: Instrument always
// sets both replicas to the same one.
func (sc *shardCtl) restoreLocked(idx uint32) {
	g := sc.inst[idx]
	g.stats = &g.statsStore
	g.rec = sc.inst[idx^1].rec
}

// applyBatchLocked runs one batch through both replicas — shadow first
// (recorded), then published catch-up (silent) — and returns the first
// apply's result. Caller holds the shard's writer mutex.
func (sc *shardCtl) applyBatchLocked(edges []Edge, del bool) int {
	shadow := sc.shadowLocked()
	var n int
	if del {
		n = shadow.DeleteBatch(edges)
	} else {
		n = shadow.InsertBatch(edges)
	}
	stale, idx := sc.publishLocked()
	if del {
		stale.DeleteBatch(edges)
	} else {
		stale.InsertBatch(edges)
	}
	sc.restoreLocked(idx)
	return n
}

// applyOpsLocked runs one ordered op sequence through both replicas —
// shadow first (recorded), then published catch-up (silent) — and returns
// the first apply's counts. Caller holds the shard's writer mutex. The ops
// slice is the pipeline's recycled sub-batch: read-only, per-call.
//
//gtlint:noretain ops
func (sc *shardCtl) applyOpsLocked(ops []EdgeOp) (inserted, deleted int) {
	inserted, deleted = sc.shadowLocked().ApplyOps(ops)
	stale, idx := sc.publishLocked()
	stale.ApplyOps(ops)
	sc.restoreLocked(idx)
	return inserted, deleted
}

// bulkReplicas exposes both replicas for the recovery bulk loader
// (bulkload.go). Only legal on a store that has never been returned to
// its creator: with zero readers and zero writers there is nothing to
// fence, so the loader builds both copies directly from identical inputs
// — no shadow/publish/drain, no double-apply, and the replicas stay
// identical by construction. After publication this accessor must never
// be used; every later access goes through pinRead or quiescedInstance.
func (sc *shardCtl) bulkReplicas() [2]*GraphTinker { return sc.inst }

// quiescedInstance returns the replica readers are currently routed to,
// without pinning it. Only safe when the caller has quiesced all writers
// (the Shard accessor's documented contract).
func (sc *shardCtl) quiescedInstance() *GraphTinker { return sc.inst[sc.activeIdx()] }

// instrumentLocked attaches rec to both replicas so whichever copy
// records an operation feeds the same histograms. Caller holds the
// shard's writer mutex.
func (sc *shardCtl) instrumentLocked(rec *metrics.UpdateRecorder) {
	sc.inst[0].Instrument(rec)
	sc.inst[1].Instrument(rec)
}

// statsSnapshot merges both replicas' owned counters. Each logical write
// op was recorded by exactly one replica (whichever was the shadow when
// it applied) and each read op by the replica that was active, so the sum
// counts every operation exactly once.
func (sc *shardCtl) statsSnapshot() Stats {
	s := sc.inst[0].Stats()
	s.Add(sc.inst[1].Stats())
	return s
}

// resetStatsLocked zeroes both replicas' owned counters plus the scratch
// sink. Caller holds the shard's writer mutex.
func (sc *shardCtl) resetStatsLocked() {
	sc.inst[0].ResetStats()
	sc.inst[1].ResetStats()
	sc.scratch.reset()
}
