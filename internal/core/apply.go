package core

// Batched apply. ApplyOps, InsertBatch and DeleteBatch run a batch a chunk
// of at most applyChunk ops at a time, in three steps:
//
//	1a. Look up, in parallel. Each part of a round reads the dense id of a
//	    contiguous range of the chunk's ops: the SGH index and the container
//	    header only, so it writes nothing another op reads. An op whose
//	    source is bound to a container resolves here. Any other op is left
//	    unresolved: a new source's insert, a delete of a source with no
//	    container, and every later op of either in the chunk. Each part
//	    keeps the largest id its resolved inserts saw.
//	1b. Resolve the rest, on the caller, in op order. The parts' largest
//	    ids go to observe, then the unresolved ops change the state an op
//	    shares with other vertices exactly as the op-by-op loop changed it:
//	    the raw-id high-water mark, the SGH index's dense ids, the growth of
//	    cont and props, a new source's container binding. It leaves one
//	    dense id per op, or noDense for a delete whose source holds no
//	    container (a no-op, as DeleteEdge's miss).
//	2.  Apply. The chunk's ops are split into partitions by dense id, and
//	    each partition's ops run in op order on whichever goroutine claims
//	    it: the caller, or a helper from a process-wide pool. An op now
//	    touches only its own vertex's container and degree and its
//	    partition's tally, so partitions are independent, and every op of a
//	    vertex runs in order on one goroutine. Containers, migration points,
//	    counters and snapshot bytes are therefore the op-by-op result's.
//
// 1a's answers are 1b's: the index, cont and props change only in 1b, and
// only for sources 1a left unresolved, so a source bound at the chunk's
// start resolves to the same id for all its ops, and its inserts change
// nothing shared but the high-water mark, a maximum.
//
// ReprBlocks applies as one partition (the edgeblock array, the CAL and the
// free list are shared), and a chunk below parallelMinOps runs every step
// on the caller alone: the same rounds, with one part.

import (
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// applyChunk bounds the resolve scratch (4 B an op) whatever the batch
	// size.
	applyChunk = 4096
	// parallelMinOps is the smallest chunk handed to helpers: below it
	// waking one costs more than it saves (see BenchmarkApplyOpsBatchSize).
	parallelMinOps = 1024
	// maxApplyParts caps the partitions of one chunk. A claimer scans the
	// chunk's ids for its partition, so more partitions cost more scans.
	maxApplyParts = 64
	// noDense is the dense id of a source with no edge container: the
	// delete ops step 2 skips.
	noDense = ^uint32(0)
	// unresolved marks an op the lookup round left to the caller.
	unresolved = noDense - 1
)

// opTally counts what a run of ops did. One goroutine owns it, so the
// fields are plain, and fold adds it to the instance once per batch: an
// atomic add per op on one shared cache line would be contended across
// cores. A lookup part keeps its resolved inserts' largest id in the same
// tally, for the caller to observe.
type opTally struct {
	inserted, updated, deleted, cells, promotions, demotions uint64
	maxID                                                    uint64
	sawID                                                    bool // padded to 64 B: one cache line per part's tally
}

// addTally adds a tally's counts to the counters, skipping zeros.
func (s *statsCounters) addTally(t *opTally) {
	for _, c := range [...]struct {
		ctr *atomic.Uint64
		n   uint64
	}{{&s.inserts, t.inserted}, {&s.updates, t.updated}, {&s.deletes, t.deleted},
		{&s.cellsInspected, t.cells}, {&s.promotions, t.promotions}, {&s.demotions, t.demotions}} {
		if c.n != 0 {
			c.ctr.Add(c.n)
		}
	}
}

// fold adds a tally to the live-edge count and the counters.
func (gt *GraphTinker) fold(t *opTally) {
	gt.numEdges += t.inserted - t.deleted
	gt.stats.addTally(t)
}

// opSource is a batch read in place: ops, or edges that are all inserts or
// all deletes (InsertBatch, DeleteBatch), so neither is ever copied.
type opSource struct {
	ops   []EdgeOp
	edges []Edge
	del   bool
}

func (s *opSource) len() int { return len(s.ops) + len(s.edges) }

func (s *opSource) at(i int) (*Edge, bool) {
	if s.ops != nil {
		return &s.ops[i].Edge, s.ops[i].Del
	}
	return &s.edges[i], s.del
}

// ApplyOps applies an ordered op sequence to one instance, returning how
// many inserts were new and how many deletes hit a live edge. It is the
// one op-apply loop: every seqlock replica, WAL replay into a session's
// graph and every sharded sink end up here, in the steps the file comment
// describes. The ops are read, never kept: pooled helpers see them
// only until ApplyOps returns.
//
//gtlint:noretain ops
func (gt *GraphTinker) ApplyOps(ops []EdgeOp) (inserted, deleted int) {
	return gt.apply(opSource{ops: ops})
}

// applyOne resolves and applies one op on the caller.
func (gt *GraphTinker) applyOne(e *Edge, del bool) opTally {
	var t opTally
	gt.applyOp(e, del, gt.resolve(e, del), &t)
	gt.fold(&t)
	return t
}

// resolve is step 1b for one op: the dense id it applies to, observing its
// ids and binding its source's container on an insert.
func (gt *GraphTinker) resolve(e *Edge, del bool) uint32 {
	if del {
		return gt.bound(e.Src)
	}
	gt.observe(e.Src)
	gt.observe(e.Dst)
	d := gt.denseOf(e.Src)
	gt.ensureDense(d)
	if ac := &gt.cont[d]; ac.kind == reprNone {
		ac.init(gt, d)
	}
	return d
}

// applyOp is step 2 for one op resolved to d, counting into t. It records
// the op's latency when a recorder is attached.
func (gt *GraphTinker) applyOp(e *Edge, del bool, d uint32, t *opTally) {
	var start time.Time
	if gt.rec != nil {
		start = time.Now()
	}
	var hit bool
	probe := 0
	switch {
	case !del:
		hit, probe = gt.cont[d].insert(t, e.Dst, e.Weight)
	case d != noDense:
		hit, probe = gt.cont[d].delete(t, e.Dst)
	}
	switch {
	case !hit && !del:
		t.updated++
	case hit && del:
		t.deleted++
	case hit:
		t.inserted++
	}
	switch {
	case gt.rec == nil:
	case del:
		gt.rec.RecordDelete(time.Since(start), probe)
	default:
		gt.rec.RecordInsert(time.Since(start), probe)
	}
}

// round is one fan-out over the helper pool, reused by every fan-out of
// its owner. The owner publishes an epoch's parts by storing a new claim
// word, and whoever takes a part claims it by compare-and-swap: the owner,
// or a helper handed a task. A helper holding a task of an older epoch
// fails its first claim and never reads the round's inputs.
type round struct {
	claim atomic.Uint64 // epoch<<32 | parts<<16 | next part
	left  atomic.Int32  // parts of this epoch not yet run
	done  chan struct{} // a helper that runs an epoch's last part signals here
	run   func(part int)
	epoch uint32
	// leaf marks parts that take no lock and never wait: batch-apply
	// partitions. Only leaf parts run on an owner waiting for its own
	// round (see wait).
	leaf bool
}

func newRound(run func(part int), leaf bool) round {
	return round{done: make(chan struct{}, 1), run: run, leaf: leaf}
}

// applyTask offers one epoch of a round to a helper.
type applyTask struct {
	r     *round
	epoch uint32
}

// applyTasks carries rounds to the helper pool, the process's one
// fan-out: batch-apply chunks, a Parallel batch's shards and a split
// engine's scatter parts all run on it. A post never blocks: a full
// channel means every helper is busy, and the owner runs the parts
// itself.
var (
	applyTasks   = make(chan applyTask, maxApplyParts)
	applyHelpers atomic.Int32
)

// helpersFor returns how many helpers a round may ask for, GOMAXPROCS−1,
// first starting whichever of them the pool lacks. Helpers live for the
// process, parked on applyTasks.
func helpersFor() int {
	want := int32(min(runtime.GOMAXPROCS(0)-1, maxApplyParts/4-1))
	for n := applyHelpers.Load(); n < want; n = applyHelpers.Load() {
		if applyHelpers.CompareAndSwap(n, n+1) {
			go applyHelper()
		}
	}
	return int(want)
}

// applyHelper holds no lock when it takes a task, so it runs any part.
func applyHelper() {
	for t := range applyTasks {
		if t.r.work(t.epoch) {
			t.r.done <- struct{}{}
		}
	}
}

// fan runs parts 0..parts-1 (at most 0xffff) of a new epoch, offering
// up to helpers of them to the pool, and returns once every part has run.
func (r *round) fan(parts, helpers int) {
	r.epoch++
	r.left.Store(int32(parts))
	r.claim.Store(uint64(r.epoch)<<32 | uint64(parts)<<16)
	for range min(helpers, parts-1) {
		select {
		case applyTasks <- applyTask{r, r.epoch}:
		default:
		}
	}
	if !r.work(r.epoch) {
		r.wait()
	}
}

// work claims and runs parts of the given epoch until none is left, and
// reports whether it ran the one that completed the epoch.
func (r *round) work(epoch uint32) (last bool) {
	for {
		w := r.claim.Load()
		p, parts := uint32(w&0xffff), uint32(w>>16&0xffff)
		if uint32(w>>32) != epoch || p >= parts {
			return last
		}
		if r.claim.CompareAndSwap(w, w+1) {
			r.run(int(p))
			last = r.left.Add(-1) == 0
		}
	}
}

// wait returns once helpers have run the parts of the owner's epoch they
// claimed. Meanwhile the owner runs the leaf parts of other rounds it
// pops, so a caller done with its own share helps whichever rounds are
// still going. It drops any other task: the owner may hold a shard's
// writer mutex (a shard part, or the batch under it), which a shard part
// would take again, and which an engine part's read may wait on. A
// dropped task loses no part, because every owner claims whatever parts
// of its epoch are left before it waits.
func (r *round) wait() {
	for {
		select {
		case <-r.done:
			return
		case t := <-applyTasks:
			if t.r.leaf && t.r.work(t.epoch) {
				t.r.done <- struct{}{}
			}
		}
	}
}

// Fan runs the parts of a split computation on the helper pool: a round
// whose parts the caller claims beside whichever helpers are free. Parts
// may take locks and wait on other goroutines, so a Fan's parts never run
// on another round's waiting owner. A Fan is not safe for concurrent Runs.
type Fan struct{ r round }

// NewFan returns a Fan whose part p runs run(p).
func NewFan(run func(part int)) *Fan {
	return &Fan{r: newRound(run, false)}
}

// Run runs parts 0..parts-1, each once, and returns when all have.
func (f *Fan) Run(parts int) { f.r.fan(parts, helpersFor()) }

// applyJob is an instance's batch hand-off, reused by every chunk: two
// leaf rounds, the lookup (step 1a) and the apply (step 2), over the
// chunk's ops.
type applyJob struct {
	round        // part p applies the chunk's ops in partition p
	lookup round // part p looks up the p-th contiguous range of the chunk's ops
	gt     *GraphTinker
	src    opSource  // the batch, from publication until the chunk's last fan returns
	lo     int       // the chunk's offset in src
	parts  uint32    // the chunk's parts, a power of two
	dense  []uint32  // each op's dense id, or unresolved until step 1b
	tally  []opTally // per part, folded once per batch; grown to the most parts used
}

// apply runs a batch through its steps a chunk at a time and folds what
// it did into the instance.
//
//gtlint:noretain src
func (gt *GraphTinker) apply(src opSource) (inserted, deleted int) {
	if gt.job == nil {
		j := &applyJob{gt: gt, tally: make([]opTally, 1)}
		j.round = newRound(j.applyPart, true)
		j.lookup = newRound(j.lookupPart, true)
		gt.job = j
	}
	j := gt.job
	//gtlint:ignore bufretain helpers read the batch only between a chunk's publication and the fan's return; it is cleared before return
	j.src = src
	used := 1 // parts whose tallies this batch may have touched
	for j.lo = 0; j.lo < src.len(); j.lo += applyChunk {
		n := min(src.len()-j.lo, applyChunk)
		helpers, parts := 0, 1
		if n >= parallelMinOps {
			helpers = helpersFor()
		}
		for helpers > 0 && parts < 4*(helpers+1) {
			parts <<= 1
		}
		if used = max(used, parts); len(j.tally) < used {
			j.tally = append(j.tally, make([]opTally, used-len(j.tally))...)
		}
		if cap(j.dense) < n {
			j.dense = make([]uint32, 0, min(max(n, 2*cap(j.dense)), applyChunk))
		}
		j.dense = j.dense[:n]
		j.parts = uint32(parts)
		j.lookup.fan(parts, helpers)
		j.resolveRest()
		if gt.cfg.Repr == ReprBlocks {
			j.parts, parts, helpers = 1, 1, 0
		}
		j.fan(parts, helpers)
	}
	j.src = opSource{}
	for p := range j.tally[:used] {
		t := &j.tally[p]
		inserted += int(t.inserted)
		deleted += int(t.deleted)
		gt.fold(t)
		*t = opTally{}
	}
	return inserted, deleted
}

// lookupPart is step 1a for the p-th of the chunk's contiguous op ranges:
// each op's dense id if its source is bound to a container, else
// unresolved, and the largest id of the resolved inserts.
func (j *applyJob) lookupPart(p int) {
	n, parts := len(j.dense), int(j.parts)
	lo, hi := p*n/parts, (p+1)*n/parts
	gt, src, dense, off := j.gt, j.src, j.dense[lo:hi], j.lo+lo
	var top uint64
	saw := false
	for k := range dense {
		e, del := src.at(off + k)
		d := gt.bound(e.Src)
		switch {
		case d == noDense:
			d = unresolved
		case !del:
			top, saw = max(top, e.Src, e.Dst), true
		}
		dense[k] = d
	}
	j.tally[p].maxID, j.tally[p].sawID = top, saw
}

// resolveRest is step 1b: it observes the lookup parts' largest ids, then
// resolves the ops they left unresolved, in op order.
func (j *applyJob) resolveRest() {
	for p := range j.parts {
		if t := &j.tally[p]; t.sawID {
			j.gt.observe(t.maxID)
			t.maxID, t.sawID = 0, false
		}
	}
	for k, d := range j.dense {
		if d == unresolved {
			j.dense[k] = j.gt.resolve(j.src.at(j.lo + k))
		}
	}
}

// applyPart is step 2 for partition p: it applies the chunk's ops in the
// partition, in op order. Groups of 16 consecutive dense ids share a
// partition, so neighbouring degree counters stay on one core.
func (j *applyJob) applyPart(p int) {
	mask, part := j.parts-1, uint32(p)
	for k, d := range j.dense {
		if d>>4&mask == part {
			e, del := j.src.at(j.lo + k)
			j.gt.applyOp(e, del, d, &j.tally[p])
		}
	}
}
