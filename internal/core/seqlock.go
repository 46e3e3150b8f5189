package core

// Contention-adaptive seqlock for the sharded store. Each shard of a
// Parallel holds an atomic version counter and ONE replica of its
// GraphTinker instance until a reader actually overlaps a writer; only then
// does the shard pay for a second replica, and it gives the second replica
// back once readers have stayed away for as long as it cost to build.
//
// SINGLE mode (how every shard starts, and how the bulk loader leaves it):
// inst[active] is the only replica, inst[active^1] is nil. A writer takes
// the version odd, confirms nobody is pinned, applies the batch in place —
// once — and stores the next even version on the SAME replica index. On a
// quiet store readers never notice: they pin an even version exactly as in
// DUAL mode.
//
// DUAL mode is the left-right protocol: writers apply each batch to the off
// replica, flip the version, wait out the reader grace period on the stale
// replica, and replay the batch there so the two copies reconverge. Readers
// never wait in DUAL mode — publication is one store and the version is
// never odd.
//
// Promotion (SINGLE -> DUAL) happens only on a measured overlap: a reader
// found the version odd for longer than the publication window and bumped
// sc.overlaps, or a writer found the single replica pinned. The writer,
// under the shard's writer mutex, clones the live replica into a fresh
// instance with the bulk loader (bulkload.go) while readers keep reading
// the source, then runs the DUAL protocol. Demotion (DUAL -> SINGLE) is the
// ski-rental rule: once the writer has applied as many ops as the shard
// holds live edges without observing a single reader entry, the extra
// applies have cost as much as the clone did, and the stale replica is
// dropped. Reader entries are observed exactly and for free: pinRead's one
// atomic add bumps a monotone entry count in the high half of the pin word.
//
// Reader protocol (pinRead/unpin):
//
//	s := seq.Load()          // odd: an in-place apply is running — back off
//	                         // (awaitEven) and tell the writer it happened;
//	                         // draining: a writer waits on a pin — yield once
//	pins[idx(s)].Add(pinOne) // announce presence on the version's replica
//	seq.Load() == s ?        // validate; a torn pin means a write raced the
//	                         // pin — back out and retry
//	... read inst[idx(s)] ...
//	pins[idx(s)].Add(-1)     // deferred, so a panicking callback cannot
//	                         // leak the pin and wedge writers
//
// Writer protocol (applyOpsLocked, under the shard's writer mutex
// Parallel.wmu):
//
//	SINGLE: g := exclusiveLocked() // seq odd; pins must read zero within a
//	                               // short spin, else seq even again, nil
//	        apply batch to g       // in place, once
//	        releaseLocked()        // seq even, same replica index
//	DUAL:   shadow := shadowLocked() // drain stragglers, the off replica
//	        apply batch to shadow    // records stats + recorder samples
//	        seq += 2                 // publish: flips the replica index
//	        catchUpLocked()          // drain the old replica's pins, then
//	                                 // replay the batch there, observed by
//	                                 // nobody (counters/recorder silenced)
//
// A sharded batch may put a DUAL shard's catch-up aside while a long
// reader still pins the old replica, holding the writer mutex, and finish
// it once the batch's other shards are published (Parallel.applyBusy).
//
// A validated pin guarantees the pinned replica is not mutated until the
// pin is released, which is what makes the scheme clean under the race
// detector: readers touch graph memory only inside a validated pin, and
// writers touch it only after observing a zero pin count past a version
// store that turns new readers away. A writer never WAITS on a pin while
// the version is odd — a re-entrant callback query or WriteSnapshot's
// all-shard fence would deadlock it — so a pinned single replica sends the
// writer to promotion, where the wait moves to the DUAL drain and readers
// are free to enter meanwhile. Version values never recur (every store is
// an increase), so a validated pin cannot straddle a write. The one
// exception is the draining bit, which a waiting drain sets and clears
// again on an even version: it routes nothing, so a pin validated across
// it is still on the replica the version names.
//
// Writer yield: while a drain waits, the draining bit makes every new
// read yield once (runtime.Gosched) before it pins. With as many readers
// looping as there are Ps, a reader the scheduler preempted while pinned
// to the drained replica would otherwise wait out every other reader's
// time slice, and the writer with it (DESIGN §8 "Writer yield").
//
// Every logical operation lands exactly once in the shard's counters, which
// live here and not in the replicas so a dropped replica takes nothing with
// it: every replica records through a pointer at sc.counters, retargeted to
// a scratch sink for catch-up replays and for the clone.
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

const (
	// pinOne is one reader entry: +1 on the live pin count (low half of the
	// pin word) and +1 on the monotone entry count (high half). Leaving
	// subtracts pinLeave's 1 from the low half only.
	pinOne   = 1<<32 | 1
	pinLeave = ^uint64(0)
	pinMask  = 1<<32 - 1

	// draining is the version's top bit, set while a drain waits on a pin;
	// an odd version or draining sends pinRead off its fast path.
	draining = 1 << 63
	slowSeq  = draining | 1

	// readerSpins is the publication window: how many odd loads a reader
	// tolerates before it counts the wait as an overlap and backs off.
	readerSpins = 8
	// writerSpins bounds how long a SINGLE writer holds the version odd
	// waiting for a pin to clear before it restores it and promotes.
	writerSpins = 64
	// yieldSpins is how many times backoff yields before it sleeps; a
	// reader still pinned after that many yields is a long walk, not a
	// straggler (see drained).
	yieldSpins = 128
)

// shardCtl is one shard's seqlock state: the version counter, the replica
// slots, a reader pin word per slot, and the mode machine's bookkeeping.
type shardCtl struct {
	// seq is the shard's version: odd while a SINGLE writer applies in
	// place, even otherwise. (seq>>1)&1 indexes the replica readers of that
	// version may pin. The top bit is the draining flag (awaitUnpinned).
	seq atomic.Uint64

	// inst are the replica slots. inst[(seq>>1)&1] is the active (readable)
	// one; the other is nil in SINGLE mode and the shadow the next batch
	// applies to first in DUAL mode. Written only under the writer mutex,
	// and only while no version routes readers to the slot.
	inst [2]*GraphTinker

	// pins[i] is inst[i]'s pin word: readers currently announced in the low
	// half, readers ever announced in the high half. A writer may mutate
	// inst[i] only after observing a zero low half past a version store
	// that routes new readers elsewhere (or holds them off).
	pins [2]atomic.Uint64

	// overlaps counts reads that waited out an in-place apply; a SINGLE
	// writer that sees it move promotes before its next apply.
	overlaps atomic.Uint64
	// dual mirrors the mode for the wait-free stats surface.
	dual atomic.Bool

	// Writer-owned, under the shard's writer mutex.
	overlapsSeen uint64                  // overlaps as of the last promote/demote decision
	entriesSeen  uint64                  // reader entries as of the last DUAL apply
	quietOps     uint64                  // ops applied in DUAL mode since a reader last entered
	rec          *metrics.UpdateRecorder // what Instrument attached, for replicas built later
	one          [1]EdgeOp               // Parallel.applyOne's op

	// counters are the shard's owned counters; scratch absorbs catch-up
	// replays and clone inserts so every logical op is counted once.
	counters statsCounters
	scratch  statsCounters
}

// init builds the shard's single replica. The shardCtl must not move
// afterwards: the replica records through a pointer into it.
func (sc *shardCtl) init(cfg Config) {
	sc.inst[0] = MustNew(cfg)
	sc.inst[0].stats = &sc.counters
}

// activeIdx returns the replica index the current version routes readers
// to.
func (sc *shardCtl) activeIdx() uint32 { return uint32(sc.seq.Load()>>1) & 1 }

// backoff is the shared wait step of drain and awaitEven: yield first,
// then sleep, so a waiter does not burn the core a sibling shard's worker
// needs.
func backoff(spins int) {
	if spins < yieldSpins {
		runtime.Gosched()
	} else {
		time.Sleep(20 * time.Microsecond)
	}
}

// pinRead enters the read-side critical section: it returns the active
// replica with its pin held. The caller must release with unpin(idx) —
// deferred, so a panicking callback cannot leak the pin. Wait-free in DUAL
// mode and on a quiet SINGLE shard; a read that lands inside an in-place
// apply waits for that one apply (awaitEven) and makes it the shard's last.
func (sc *shardCtl) pinRead() (*GraphTinker, uint32) {
	for yielded := false; ; {
		s := sc.seq.Load()
		if s&slowSeq != 0 {
			if s&draining != 0 && !yielded {
				runtime.Gosched() // let the reader the drain waits for run
				yielded = true
				continue
			}
			if s&1 != 0 {
				s = sc.awaitEven()
			}
		}
		idx := uint32(s>>1) & 1
		sc.pins[idx].Add(pinOne)
		if sc.seq.Load() == s {
			return sc.inst[idx], idx
		}
		// Torn pin: a write moved the version between the snapshot and the
		// pin. The graph was never touched; back out and retry.
		sc.pins[idx].Add(pinLeave)
	}
}

// awaitEven is pinRead's slow path: a SINGLE writer holds the version odd.
// Past the publication window the reader records the overlap — the writer's
// next apply promotes the shard, so this reader and every later one waits
// at most this once — and backs off until the version is even.
func (sc *shardCtl) awaitEven() uint64 {
	for spins := 0; ; spins++ {
		if s := sc.seq.Load(); s&1 == 0 {
			return s
		}
		if spins == readerSpins {
			sc.overlaps.Add(1)
		}
		if spins >= readerSpins {
			backoff(spins - readerSpins)
		}
	}
}

// unpin leaves the read-side critical section entered by pinRead.
func (sc *shardCtl) unpin(idx uint32) { sc.pins[idx].Add(pinLeave) }

// pinned reports whether any reader is announced on inst[idx].
func (sc *shardCtl) pinned(idx uint32) bool { return sc.pins[idx].Load()&pinMask != 0 }

// entries is the number of reader entries the shard has ever seen (mod
// 2^32 per slot; only compared for change).
func (sc *shardCtl) entries() uint64 { return sc.pins[0].Load()>>32 + sc.pins[1].Load()>>32 }

// drain waits until no reader is pinned to inst[idx]. Termination: the
// current version routes new readers to the other replica (or an
// unvalidated straggler backs out without reading), so the pin count can
// only fall. Never called with the version odd.
func (sc *shardCtl) drain(idx uint32) { sc.awaitUnpinned(idx, -1) }

// drained yields while readers are pinned to inst[idx], at most
// yieldSpins times, and reports whether they all left.
func (sc *shardCtl) drained(idx uint32) bool { return sc.awaitUnpinned(idx, yieldSpins) }

// awaitUnpinned backs off while readers are pinned to inst[idx], at most
// limit times unless limit is negative, and reports whether they all left.
// While it waits the version carries the draining bit, so new readers
// yield once before they pin. Only the writer stores the version, and the
// version is even here, so restoring the loaded value clears the bit.
func (sc *shardCtl) awaitUnpinned(idx uint32, limit int) bool {
	if !sc.pinned(idx) {
		return true
	}
	s := sc.seq.Load()
	sc.seq.Store(s | draining)
	defer sc.seq.Store(s)
	for spins := 0; sc.pinned(idx); spins++ {
		if spins == limit {
			return false
		}
		backoff(spins)
	}
	return true
}

// exclusiveLocked takes the single replica for an in-place apply: version
// odd so new readers hold off, then the pin count must read zero. It does
// not wait for a pinned reader beyond a short spin — the pin may be the
// outer half of a nested query, or a snapshot fence that outlives the
// batch — but puts the version back to even on the same index and returns
// nil; the caller promotes instead. Caller holds the shard's writer mutex,
// shard in SINGLE mode.
func (sc *shardCtl) exclusiveLocked() *GraphTinker {
	s := sc.seq.Load()
	idx := uint32(s>>1) & 1
	sc.seq.Store(s + 1)
	for spins := 0; sc.pinned(idx); spins++ {
		if spins == writerSpins {
			sc.seq.Store(s + 4)
			return nil
		}
	}
	return sc.inst[idx]
}

// releaseLocked ends an in-place apply: the next even version, same
// replica index (+4 from the even version exclusiveLocked started at).
func (sc *shardCtl) releaseLocked() { sc.seq.Store(sc.seq.Load() + 3) }

// promoteLocked takes the shard from SINGLE to DUAL: it bulk-builds a
// logical copy of the live replica into the empty slot. Readers keep
// reading the source throughout (the clone only reads it); the clone's
// inserts are counted nowhere. Caller holds the shard's writer mutex.
func (sc *shardCtl) promoteLocked() {
	idx := sc.activeIdx()
	src := sc.inst[idx]
	fresh := MustNew(src.cfg)
	fresh.stats = &sc.scratch
	src.cloneInto(fresh)
	fresh.stats = &sc.counters
	fresh.rec = sc.rec
	sc.inst[idx^1] = fresh
	sc.entriesSeen, sc.quietOps = sc.entries(), 0
	sc.dual.Store(true)
	sc.counters.shadowBuilds.Add(1)
}

// demoteLocked takes the shard from DUAL back to SINGLE by dropping the
// off replica. Caller holds the shard's writer mutex and has just finished
// a DUAL apply, so both replicas are converged.
func (sc *shardCtl) demoteLocked() {
	idx := sc.activeIdx() ^ 1
	sc.drain(idx) // stragglers from before the last flip, about to back out
	sc.inst[idx] = nil
	sc.overlapsSeen = sc.overlaps.Load()
	sc.dual.Store(false)
	sc.counters.shadowDrops.Add(1)
}

// shadowLocked returns the off replica, drained of stragglers whose pin
// pre-dates the last flip (they are about to fail validation and back
// out). Caller holds the shard's writer mutex, shard in DUAL mode.
func (sc *shardCtl) shadowLocked() *GraphTinker {
	idx := sc.activeIdx() ^ 1
	sc.drain(idx)
	return sc.inst[idx]
}

// publishOpsLocked applies an ordered op sequence to the shard in
// whichever mode it is in, moving the mode when the evidence says so, and
// publishes it: it returns the (one recorded) apply's counts, and whether
// the shard is DUAL, with the old replica left for catchUpLocked. Caller
// holds the shard's writer mutex, and holds it until the catch-up. The ops
// slice is a recycled sub-batch: read-only, per-call.
//
//gtlint:noretain ops
func (sc *shardCtl) publishOpsLocked(ops []EdgeOp) (inserted, deleted int, stale bool) {
	if !sc.dual.Load() {
		if sc.overlaps.Load() == sc.overlapsSeen {
			if g := sc.exclusiveLocked(); g != nil {
				inserted, deleted = g.ApplyOps(ops)
				sc.releaseLocked()
				return inserted, deleted, false
			}
		}
		sc.promoteLocked()
	} else if e := sc.entries(); e != sc.entriesSeen {
		sc.entriesSeen, sc.quietOps = e, 0
	} else {
		sc.quietOps += uint64(len(ops))
	}
	inserted, deleted = sc.shadowLocked().ApplyOps(ops)
	sc.seq.Add(2) // (seq>>1)&1 now selects the shadow
	return inserted, deleted, true
}

// staleIdx is the slot of the replica a DUAL publish left behind.
func (sc *shardCtl) staleIdx() uint32 { return sc.activeIdx() ^ 1 }

// catchUpLocked replays the ops publishOpsLocked published on the old
// replica once its readers have drained, silenced so each operation is
// recorded once, and demotes the shard if readers have stayed away long
// enough. Caller holds the shard's writer mutex.
//
//gtlint:noretain ops
func (sc *shardCtl) catchUpLocked(ops []EdgeOp) {
	idx := sc.staleIdx()
	sc.drain(idx)
	stale := sc.inst[idx]
	stale.stats, stale.rec = &sc.scratch, nil
	stale.ApplyOps(ops)
	stale.stats, stale.rec = &sc.counters, sc.rec
	// Ski rental: the second applies since the last reader have now cost
	// what the clone cost (one insert per live edge), so stop paying.
	if sc.quietOps >= sc.inst[idx^1].NumEdges() && sc.entries() == sc.entriesSeen {
		sc.demoteLocked()
	}
}

// applyOpsLocked is the one write path: publishOpsLocked, then the
// catch-up a DUAL publish leaves. Caller holds the shard's writer mutex.
//
//gtlint:noretain ops
func (sc *shardCtl) applyOpsLocked(ops []EdgeOp) (inserted, deleted int) {
	inserted, deleted, stale := sc.publishOpsLocked(ops)
	if stale {
		sc.catchUpLocked(ops)
	}
	return inserted, deleted
}

// quiescedInstance returns the replica readers are currently routed to,
// without pinning it. Only safe when the caller has quiesced all writers
// (the Shard accessor's documented contract) — or, for the bulk loader,
// when the store has not been returned to its creator yet.
func (sc *shardCtl) quiescedInstance() *GraphTinker { return sc.inst[sc.activeIdx()] }

// instrumentLocked attaches rec to every live replica, and remembers it
// for replicas promotion builds later, so whichever copy records an
// operation feeds the same histograms. Caller holds the shard's writer
// mutex.
func (sc *shardCtl) instrumentLocked(rec *metrics.UpdateRecorder) {
	sc.rec = rec
	for _, g := range sc.inst {
		if g != nil {
			g.Instrument(rec)
		}
	}
}

// statsSnapshot reads the shard's counters and mode. Wait-free: it touches
// no replica.
func (sc *shardCtl) statsSnapshot() Stats {
	s := sc.counters.snapshot()
	s.Replicas = 1
	if sc.dual.Load() {
		s.Replicas = 2
	}
	return s
}

// resetStatsLocked zeroes the shard's counters plus the scratch sink.
// Caller holds the shard's writer mutex.
func (sc *shardCtl) resetStatsLocked() {
	sc.counters.reset()
	sc.scratch.reset()
}
