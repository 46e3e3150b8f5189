package core

import (
	"fmt"
	"sync"

	"graphtinker/internal/metrics"
)

// Parallel shards a dynamic graph across several independent GraphTinker
// instances, partitioning the edge stream by where each edge's source vertex
// id hashes to (Sec. III.D, Fig. 6). A batch applies its shards in
// parallel; because an edge's shard is a pure function of its source id,
// no two of them ever touch the same instance.
//
// Concurrency contract: readers take no lock. Each shard carries a
// contention-adaptive seqlock — an atomic version counter over one replica,
// or over a double-buffered pair once a reader has overlapped a writer (see
// seqlock.go) — and every query (FindEdge, OutDegree, ForEachOutEdge,
// ForEachEdge, ForEachActiveEdge, ForEachActiveShardEdge, NumEdges,
// MaxVertexID, AnalyzeProbes) snapshots the version, reads a pinned
// replica, and retries only on a torn observation. A query never sees a
// half-applied batch. On a shard whose readers and writers have not met, a
// query that lands inside a batch apply waits for that apply — once: the
// overlap makes the shard keep a second replica, and from then on a query
// issued mid-batch sees the shard's last published state without waiting.
// Mutators (InsertBatch, DeleteBatch,
// ApplyOps, InsertEdge, DeleteEdge, ApplyShard) keep mutual exclusion per
// shard via a writer mutex; they apply in place while nobody reads, and
// otherwise write the off replica, publish it by bumping the version, and
// reconverge the stale replica after the reader grace period. Iteration
// callbacks may query this Parallel re-entrantly (pins nest), but must not
// mutate it: a writer waits for the caller's own pin to drain and would
// deadlock. Direct Shard(i) access bypasses the version protocol entirely
// and is only safe when the caller has quiesced all writers.
//
// Batch path: a batch stages each shard's ops on the caller, then deals
// the shards it touches to the process's apply helper pool as one round —
// the caller runs shard parts beside whichever helpers are free, and each
// shard's own apply splits further on the same pool (see apply.go). A
// shard whose old replica a long reader still pins once the batch is
// published there finishes its catch-up after the other shards, so no
// shard's apply waits for a reader of another. A batch touching one shard
// applies on the caller alone. The staging
// buffers are reused across calls, so the steady-state batch path
// allocates nothing, and a Parallel owns no goroutines: it needs no Close.
// Batch calls are serialized with each other; their shards still apply in
// parallel.
type Parallel struct {
	cfg  Config
	sc   []shardCtl   // per-shard seqlock state: version, replicas, pins, mode
	wmu  []sync.Mutex // per-shard writer mutual exclusion
	seed uint64

	// batchMu serializes the batch path: parts, busy, results and round
	// below are reused across InsertBatch/DeleteBatch/ApplyOps calls.
	batchMu sync.Mutex
	parts   [][]EdgeOp // per-shard staging, capacity reused across batches
	busy    []int      // the shards a batch touches; the round's part k applies busy[k]
	results []opCounts // slot k written only by whoever runs part k, read after the round
	lagging []bool     // slot k: part k left busy[k]'s catch-up, and its writer mutex, to the batch's end
	round   round      // a batch's shard parts on the helper pool
}

// opCounts is what applying an op sequence changed: inserts that were new,
// deletes that hit a live edge.
type opCounts struct{ inserted, deleted int }

// EdgeOp is one ordered mutation in a streamed update sequence: an insert
// (or weight update) when Del is false, a deletion when Del is true.
// Preserving op order per (Src, Dst) pair is what lets a concurrent
// pipeline converge to the same state as a sequential replay.
type EdgeOp struct {
	Edge
	Del bool
}

// InsertOp builds an insert/update op.
func InsertOp(src, dst uint64, w float32) EdgeOp {
	return EdgeOp{Edge: Edge{Src: src, Dst: dst, Weight: w}}
}

// DeleteOp builds a deletion op.
func DeleteOp(src, dst uint64) EdgeOp {
	return EdgeOp{Edge: Edge{Src: src, Dst: dst}, Del: true}
}

// NewParallel builds p independent instances sharing one configuration.
func NewParallel(cfg Config, p int) (*Parallel, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: shard count %d must be positive", p)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	par := &Parallel{
		cfg:  cfg,
		sc:   make([]shardCtl, p),
		wmu:  make([]sync.Mutex, p),
		seed: cfg.HashSeed ^ 0xa24baed4963ee407,
	}
	for i := range par.sc {
		par.sc[i].init(cfg)
	}
	par.round = newRound(par.applyBusy, false)
	return par, nil
}

// Shards returns the number of parallel instances.
func (p *Parallel) Shards() int { return len(p.sc) }

// Shard exposes the active replica of instance i. Mutating it directly
// bypasses the partitioning invariant and the seqlock, and even reading it
// is only safe when the caller has quiesced all writers (otherwise a
// concurrent batch may be applying to it in place).
func (p *Parallel) Shard(i int) *GraphTinker { return p.sc[i].quiescedInstance() }

// shardOf routes a source vertex to its instance.
func (p *Parallel) shardOf(src uint64) int { return shardFor(src, p.seed, len(p.sc)) }

// ShardOf reports which shard owns edges sourced at src — the partition
// function streaming pipelines use to pre-route updates.
func (p *Parallel) ShardOf(src uint64) int { return p.shardOf(src) }

// ApplyShard applies an ordered op sequence to one shard under its writer
// mutex, returning how many inserts were new and how many deletes hit a
// live edge. Every op must be owned by the given shard (ShardOf(op.Src) ==
// shard); routing is the caller's job so the hot loop stays branch-light.
func (p *Parallel) ApplyShard(shard int, ops []EdgeOp) (inserted, deleted int) {
	if len(ops) == 0 {
		return 0, 0
	}
	p.wmu[shard].Lock()
	defer p.wmu[shard].Unlock()
	return p.sc[shard].applyOpsLocked(ops)
}

// resetPartsLocked empties the reusable per-shard staging buffers. They
// keep their high-water capacity, so steady-state staging is allocation-
// free. Caller holds p.batchMu.
func (p *Parallel) resetPartsLocked() {
	if p.parts == nil {
		p.parts = make([][]EdgeOp, len(p.sc))
		p.busy = make([]int, 0, len(p.sc))
		p.results = make([]opCounts, len(p.sc))
		p.lagging = make([]bool, len(p.sc))
	}
	for i := range p.parts {
		p.parts[i] = p.parts[i][:0]
	}
}

// applyPartsLocked applies the staged per-shard sub-batches and sums what
// they changed. Two or more busy shards are one round on the helper pool,
// followed by the catch-ups its parts left behind; a single one applies
// inline. Caller holds p.batchMu.
func (p *Parallel) applyPartsLocked() (total opCounts) {
	p.busy = p.busy[:0]
	for i, part := range p.parts {
		if len(part) > 0 {
			p.busy = append(p.busy, i)
		}
	}
	if len(p.busy) < 2 {
		for _, s := range p.busy {
			total.inserted, total.deleted = p.ApplyShard(s, p.parts[s])
		}
		return total
	}
	p.round.fan(len(p.busy), helpersFor())
	// Every shard is published; finish the catch-ups parts left behind.
	for k, s := range p.busy {
		if p.lagging[k] {
			p.lagging[k] = false
			p.sc[s].catchUpLocked(p.parts[s])
			p.wmu[s].Unlock()
		}
	}
	for _, r := range p.results[:len(p.busy)] {
		total.inserted += r.inserted
		total.deleted += r.deleted
	}
	return total
}

// applyBusy is the batch round's part k: busy shard k's staged ops, under
// the shard's writer mutex. A DUAL shard whose old replica a reader still
// pins once the new one is published keeps the mutex and leaves its
// catch-up to the end of the batch, so a long walk on one shard holds up
// no other shard's apply (the caller may be running the parts one after
// another).
func (p *Parallel) applyBusy(k int) {
	s := p.busy[k]
	sc := &p.sc[s]
	p.wmu[s].Lock()
	ins, del, stale := sc.publishOpsLocked(p.parts[s])
	p.results[k] = opCounts{ins, del}
	if stale && !sc.drained(sc.staleIdx()) {
		p.lagging[k] = true
		return
	}
	if stale {
		sc.catchUpLocked(p.parts[s])
	}
	p.wmu[s].Unlock()
}

// runBatch stages one unordered batch — each edge's shard is hashed exactly
// once — and applies it. Batches are serialized on p.batchMu (their staging
// state is shared); the per-shard applies still run concurrently.
func (p *Parallel) runBatch(edges []Edge, del bool) opCounts {
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	p.resetPartsLocked()
	for i := range edges {
		s := p.shardOf(edges[i].Src)
		p.parts[s] = append(p.parts[s], EdgeOp{Edge: edges[i], Del: del})
	}
	return p.applyPartsLocked()
}

// InsertBatch loads a batch across all instances concurrently and returns
// how many edges were new.
func (p *Parallel) InsertBatch(edges []Edge) int { return p.runBatch(edges, false).inserted }

// DeleteBatch removes a batch across all instances concurrently and returns
// how many edges were present.
func (p *Parallel) DeleteBatch(edges []Edge) int { return p.runBatch(edges, true).deleted }

// ApplyOps applies an ordered op sequence across all instances
// concurrently, returning how many inserts were new and how many deletes
// hit a live edge. Order is preserved per shard, hence per (Src, Dst) pair,
// which is all a sequential replay's outcome depends on. It is the batch
// entry for every caller that holds a mixed op stream: the ingest
// pipeline's flushes, WAL replay and replication followers.
//
//gtlint:noretain ops
func (p *Parallel) ApplyOps(ops []EdgeOp) (inserted, deleted int) {
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	p.resetPartsLocked()
	for i := range ops {
		s := p.shardOf(ops[i].Src)
		p.parts[s] = append(p.parts[s], ops[i])
	}
	total := p.applyPartsLocked()
	return total.inserted, total.deleted
}

// Close does nothing: a Parallel owns no goroutines, so there is nothing
// to stop. It is kept for callers that still close their stores.
func (p *Parallel) Close() {}

// InsertEdge routes a single insertion to its shard.
func (p *Parallel) InsertEdge(src, dst uint64, w float32) bool {
	inserted, _ := p.applyOne(InsertOp(src, dst, w))
	return inserted == 1
}

// DeleteEdge routes a single deletion to its shard.
func (p *Parallel) DeleteEdge(src, dst uint64) bool {
	_, deleted := p.applyOne(DeleteOp(src, dst))
	return deleted == 1
}

// applyOne applies one op to its shard through the shard's one-op scratch
// (a batch hands its ops to pooled helpers, so a stack array would escape).
func (p *Parallel) applyOne(op EdgeOp) (inserted, deleted int) {
	i := p.shardOf(op.Src)
	p.wmu[i].Lock()
	defer p.wmu[i].Unlock()
	p.sc[i].one[0] = op
	return p.sc[i].applyOpsLocked(p.sc[i].one[:])
}

// FindEdge routes a lookup to its shard. It takes no lock: the lookup runs
// on a version-pinned replica (see the type comment for the one wait a
// first overlap with a writer can cost).
func (p *Parallel) FindEdge(src, dst uint64) (float32, bool) {
	sc := &p.sc[p.shardOf(src)]
	g, idx := sc.pinRead()
	defer sc.unpin(idx)
	return g.FindEdge(src, dst)
}

// OutDegree routes a degree query to its shard (no lock, see FindEdge).
func (p *Parallel) OutDegree(src uint64) uint32 {
	sc := &p.sc[p.shardOf(src)]
	g, idx := sc.pinRead()
	defer sc.unpin(idx)
	return g.OutDegree(src)
}

// shardNumEdges reads one shard's live-edge count on a pinned replica.
func (p *Parallel) shardNumEdges(i int) uint64 {
	sc := &p.sc[i]
	g, idx := sc.pinRead()
	defer sc.unpin(idx)
	return g.NumEdges()
}

// NumEdges sums live edges across shards. Concurrent writers may land in
// or out of the sum; each shard's contribution is a consistent point read
// of its last published state.
func (p *Parallel) NumEdges() uint64 {
	var n uint64
	for i := range p.sc {
		n += p.shardNumEdges(i)
	}
	return n
}

// shardMaxVertexID reads one shard's id high-water mark on a pinned
// replica.
func (p *Parallel) shardMaxVertexID(i int) (uint64, bool) {
	sc := &p.sc[i]
	g, idx := sc.pinRead()
	defer sc.unpin(idx)
	return g.MaxVertexID()
}

// MaxVertexID returns the highest raw vertex id seen by any shard.
func (p *Parallel) MaxVertexID() (uint64, bool) {
	var maxID uint64
	saw := false
	for i := range p.sc {
		id, ok := p.shardMaxVertexID(i)
		if ok {
			if !saw || id > maxID {
				maxID = id
			}
			saw = true
		}
	}
	return maxID, saw
}

// ForEachOutEdge routes the per-vertex walk to the owning shard. The whole
// walk runs on one pinned replica, so it observes an atomic batch
// boundary. The callback may query this Parallel but must not mutate it
// (see the type comment).
func (p *Parallel) ForEachOutEdge(src uint64, fn func(dst uint64, w float32) bool) {
	sc := &p.sc[p.shardOf(src)]
	g, idx := sc.pinRead()
	defer sc.unpin(idx)
	g.ForEachOutEdge(src, fn)
}

// ForEachEdge streams all edges shard by shard (ForEachActiveEdge with
// every source accepted).
func (p *Parallel) ForEachEdge(fn func(src, dst uint64, w float32) bool) {
	p.ForEachActiveEdge(nil, fn)
}

// ForEachActiveEdge streams shard by shard at least the out-edges of every
// source active accepts (nil accepts all; see
// GraphTinker.ForEachActiveEdge). The walk is per-shard-consistent: each
// shard is scanned on one pinned replica, so a scan never observes a
// half-applied batch, and a concurrent pipeline can be mutating shard j
// while shard i streams. It is ForEachActivePartEdge's only part of one.
func (p *Parallel) ForEachActiveEdge(active func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	p.ForEachActivePartEdge(0, 1, active, fn)
}

// SplitsEdgeWalk reports whether ForEachActivePartEdge divides the walk:
// by stripes where the shards split theirs (see GraphTinker.SplitsEdgeWalk;
// every shard shares one Config), else by shard when there are two or
// more.
func (p *Parallel) SplitsEdgeWalk() bool { return splitsEdgeWalk(p.cfg) || len(p.sc) > 1 }

// ForEachActivePartEdge walks part `part` of `parts`, each shard on a
// pinned replica. Where the representation stripes its walk, the part is
// GraphTinker.ForEachActivePartEdge's part of every shard in turn; where
// it does not (ReprBlocks), the part is the whole shards part,
// part+parts, … . Every vertex's edges thus come from one batch boundary,
// but with a writer running, parts walked concurrently may see a shard at
// different boundaries. A false from fn stops the walk across shards.
func (p *Parallel) ForEachActivePartEdge(part, parts int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	stopped := false
	visit := func(src, dst uint64, w float32) bool {
		stopped = !fn(src, dst, w)
		return !stopped
	}
	first, step := 0, 1
	if !splitsEdgeWalk(p.cfg) {
		first, step, part, parts = part, parts, 0, 1
	}
	for i := first; i < len(p.sc) && !stopped; i += step {
		p.walkShardPart(i, part, parts, active, visit)
	}
}

// NumShards reports the shard count.
func (p *Parallel) NumShards() int { return len(p.sc) }

// ForEachActiveShardEdge is ForEachActiveEdge over one shard, on a pinned
// replica (nil active streams every edge the shard holds). Safe to call
// concurrently for distinct (or even the same) shards, and never blocks a
// writer for longer than the scan itself.
func (p *Parallel) ForEachActiveShardEdge(shard int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	p.walkShardPart(shard, 0, 1, active, fn)
}

// walkShardPart walks one part of one shard on a pinned replica.
func (p *Parallel) walkShardPart(shard, part, parts int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	sc := &p.sc[shard]
	g, idx := sc.pinRead()
	defer sc.unpin(idx)
	g.ForEachActivePartEdge(part, parts, active, fn)
}

// Stats merges the counters of every shard. The per-shard counters are
// atomics, so merging is race-clean even while a concurrent batch update is
// in flight (the snapshot may straddle in-flight operations, but every
// field is individually consistent). No locks are taken: Stats stays
// wait-free so telemetry never stalls behind a long shard scan. Each
// logical operation is counted exactly once per shard, however many
// replicas the shard holds or has held (see seqlock.go).
func (p *Parallel) Stats() Stats {
	var total Stats
	for i := range p.sc {
		total.Add(p.sc[i].statsSnapshot())
	}
	return total
}

// ShardStats snapshots each shard's counters individually — the per-shard
// telemetry surface, including which seqlock mode the shard is in
// (Replicas is 1 or 2). Like Stats it is safe to call mid-batch.
func (p *Parallel) ShardStats() []Stats {
	out := make([]Stats, len(p.sc))
	for i := range p.sc {
		out[i] = p.sc[i].statsSnapshot()
	}
	return out
}

// Instrument attaches one shared update-path recorder to every shard, so a
// single set of latency/probe histograms covers the whole sharded store.
// Every replica of a shard, present or built later, gets the same
// recorder; catch-up replays detach it while they run, so each logical
// operation is sampled exactly once. A nil rec detaches. Do not attach or detach while a batch is in
// flight.
func (p *Parallel) Instrument(rec *metrics.UpdateRecorder) {
	for i := range p.sc {
		p.wmu[i].Lock()
		p.sc[i].instrumentLocked(rec)
		p.wmu[i].Unlock()
	}
}

// ResetStats clears the counters of every shard.
func (p *Parallel) ResetStats() {
	for i := range p.sc {
		p.wmu[i].Lock()
		p.sc[i].resetStatsLocked()
		p.wmu[i].Unlock()
	}
}
