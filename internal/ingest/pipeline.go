// Package ingest is the streaming ingestion subsystem: it accepts an
// unbounded stream of edge insert/delete updates, coalesces them into
// batches (size- and time-triggered flush), partitions each batch by the
// target's shard function, and applies per-shard sub-batches on a fixed
// pool of per-shard worker goroutines with bounded admission and
// caller-selectable backpressure (block or reject-with-error).
//
// Ordering and consistency model: updates pushed by one goroutine are
// applied to their shard in push order (one FIFO queue and one worker per
// shard), so the drained target converges to exactly the state a
// sequential replay of the stream would produce — the property the
// differential tests pin. Reads against the target during ingestion are
// safe (core.Parallel reads are lock-free seqlock reads that never see a
// half-applied batch) but only eventually consistent;
// Flush is the read-your-writes barrier: it returns once every update
// admitted before the call has been applied.
package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/faultinject"
	"graphtinker/internal/wal"
)

// Update is one streamed mutation (an insert/update or a delete); it is
// core.EdgeOp, so pipelines and the sharded store share one op vocabulary.
type Update = core.EdgeOp

// Insert builds an insert/update op.
func Insert(src, dst uint64, w float32) Update { return core.InsertOp(src, dst, w) }

// Delete builds a deletion op.
func Delete(src, dst uint64) Update { return core.DeleteOp(src, dst) }

// Target is the sharded write surface a pipeline drains into.
// *core.Parallel satisfies it; tests substitute instrumented fakes.
type Target interface {
	// NumShards reports how many independent write domains exist.
	NumShards() int
	// ShardOf routes a source vertex to its write domain.
	ShardOf(src uint64) int
	// ApplyShard applies an ordered op sequence to one shard, returning
	// how many inserts were new and how many deletes hit a live edge. It
	// is only ever called from the shard's single worker goroutine, so
	// calls for different shards overlap and calls for one shard never
	// do. The ops slice is the pipeline's recycled sub-batch buffer,
	// valid only for the duration of the call, so implementations must
	// copy anything they keep.
	//
	//gtlint:noretain ops
	ApplyShard(shard int, ops []core.EdgeOp) (inserted, deleted int)
}

// Policy selects what Push does when the pipeline's admission budget is
// exhausted.
type Policy uint8

const (
	// Block makes Push wait until workers free budget (default).
	Block Policy = iota
	// Reject makes Push fail fast with ErrBackpressure.
	Reject
)

// ErrClosed is returned by pushes after Close.
var ErrClosed = errors.New("ingest: pipeline closed")

// ErrBackpressure is returned under the Reject policy when the pipeline's
// in-flight budget is exhausted.
var ErrBackpressure = errors.New("ingest: pipeline backpressure (queue full)")

// ErrDegraded is returned by pushes once the pipeline has lost its
// durability guarantee (persistent WAL failure): rather than silently
// acknowledging updates it can no longer log, the pipeline sheds them.
// FlushSync also reports it when any shard has been degraded by a
// contained worker panic, so callers learn the applied state is partial.
var ErrDegraded = errors.New("ingest: pipeline degraded")

// ErrTimeout is returned when a FlushSync or Close barrier misses the
// configured FlushTimeout deadline.
var ErrTimeout = errors.New("ingest: deadline exceeded")

// Options configures a pipeline; zero values select the defaults.
type Options struct {
	// MaxBatch is the size-triggered flush threshold: the shared buffer is
	// flushed to the shard queues when it holds this many updates
	// (default 8192).
	MaxBatch int
	// FlushInterval is the time-triggered flush period, bounding how stale
	// a trickle of updates can get (default 2ms; negative disables the
	// timer so only size triggers and explicit Flush calls drain).
	FlushInterval time.Duration
	// MaxPending bounds updates admitted but not yet applied (buffered +
	// queued). Pushes beyond it hit the backpressure Policy
	// (default 8 × MaxBatch).
	MaxPending int
	// Policy selects blocking or rejecting backpressure.
	Policy Policy
	// Recorder, when non-nil, receives queue-depth/batch-size/latency
	// telemetry.
	Recorder *Recorder
	// WAL, when non-nil, makes the pipeline durable: every flush appends
	// its coalesced batch to the log (in push order, under the pipeline
	// lock) before handing sub-batches to the shard workers, so the log is
	// always an exact prefix of the admitted stream. FlushSync and Close
	// fsync the log at their barrier. The pipeline does not Open or Close
	// the log; ownership stays with the caller.
	WAL *wal.Log
	// FlushTimeout, when positive, bounds how long FlushSync and Close wait
	// for their barrier before giving up with ErrTimeout (default 0: wait
	// forever).
	FlushTimeout time.Duration
	// MaxRetries bounds transient-failure retries on WAL appends and shard
	// applies before the pipeline degrades (default 4).
	MaxRetries int
	// RetryBase is the first retry backoff; it doubles per attempt with
	// jitter, capped at 50ms (default 1ms). WAL-append retries sleep under
	// the pipeline lock, so the worst case stalls admission for roughly
	// RetryBase × 2^MaxRetries.
	RetryBase time.Duration
}

// DefaultMaxBatch is the default size-triggered flush threshold.
const DefaultMaxBatch = 8192

// DefaultFlushInterval is the default time-triggered flush period.
const DefaultFlushInterval = 2 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 8 * o.MaxBatch
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = time.Millisecond
	}
	return o
}

// Totals summarizes a pipeline's lifetime work.
type Totals struct {
	// Pushed counts updates admitted.
	Pushed uint64 `json:"pushed"`
	// Inserted / Deleted count ops that changed the target (new edges /
	// removed live edges), as reported by ApplyShard.
	Inserted uint64 `json:"inserted"`
	Deleted  uint64 `json:"deleted"`
	// Dropped counts admitted updates discarded because their shard was
	// degraded by a contained panic or exhausted apply retries. They are
	// missing from the in-memory store but — when a WAL is attached — still
	// in the log, so recovery restores them.
	Dropped uint64 `json:"dropped"`
	// Panics counts worker panics contained by the pipeline.
	Panics uint64 `json:"panics"`
	// DegradedShards counts shards currently in the degraded (dropping)
	// state.
	DegradedShards int `json:"degraded_shards"`
	// WALDegraded reports that WAL appends were abandoned after persistent
	// failure; pushes are shed with ErrDegraded once this is set.
	WALDegraded bool `json:"wal_degraded"`
}

// job is one unit handed to a shard worker: either an ordered sub-batch or
// a barrier marker (ack non-nil).
type job struct {
	ops []Update
	at  time.Time
	ack chan<- struct{}
}

// shardQueue is one shard's unbounded FIFO (admission is bounded globally
// by MaxPending, so its backlog never exceeds the pipeline budget). It is
// a head-indexed slice rather than a pop-front reslice so the backing
// array is reused once the queue drains — the steady-state push path
// stops allocating after the backlog's high-water mark.
type shardQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	jobs   []job
	head   int
	closed bool
}

func newShardQueue() *shardQueue {
	q := &shardQueue{}
	q.cond.L = &q.mu
	return q
}

// push appends a job; it reports false when the queue already shut down
// (only barriers race that window).
func (q *shardQueue) push(j job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.jobs = append(q.jobs, j)
	q.cond.Signal()
	return true
}

// pop blocks for the next job; ok=false means closed and drained.
func (q *shardQueue) pop() (job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.jobs) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.jobs) {
		return job{}, false
	}
	j := q.jobs[q.head]
	q.jobs[q.head] = job{} // drop references so recycled buffers aren't pinned
	q.head++
	if q.head == len(q.jobs) {
		q.jobs = q.jobs[:0]
		q.head = 0
	}
	return j, true
}

func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// abort closes the queue and discards its backlog — the crash path.
func (q *shardQueue) abort() {
	q.mu.Lock()
	q.jobs = nil
	q.head = 0
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Pipeline is the streaming coalescer; see the package comment for the
// ordering/consistency model. All methods are safe for concurrent use.
type Pipeline struct {
	target Target
	opts   Options
	rec    *Recorder

	mu      sync.Mutex
	notFull sync.Cond
	buf     []Update
	pending int // admitted but unapplied updates
	pushed  uint64
	closed  bool

	// flushLocked's partition scratch, reused across flushes (guarded by
	// mu): per-shard counts, the cached shard index of every buffered
	// update (each source id is hashed exactly once per flush), and the
	// header slice the sub-batches are staged into.
	counts   []int
	shardIdx []int32
	parts    [][]Update

	// freeParts recycles flushed sub-batch buffers: workers return them
	// after apply, flushLocked reuses them, so steady-state coalescing
	// allocates nothing. Bounded to maxFree — the whole admission budget
	// staged as sub-batches plus one flush in hand — so a full backlog
	// circulates without allocating while burst memory stays proportional
	// to MaxPending.
	freeMu    sync.Mutex
	freeParts [][]Update
	maxFree   int

	queues  []*shardQueue
	workers sync.WaitGroup

	// degraded[i] marks shard i as dropping (contained panic or exhausted
	// apply retries); degradedShards is the count, walDegraded the
	// pipeline-wide durability loss flag.
	degraded       []atomic.Bool
	degradedShards atomic.Int32
	closeDone      chan struct{} // closed once shutdown (Close/Abort) finishes
	closeTotals    Totals
	walDegraded    atomic.Bool

	timerStop chan struct{}
	timerDone chan struct{}

	totals struct {
		mu                sync.Mutex
		inserted, deleted uint64
		dropped, panics   uint64
	}
}

// New starts a pipeline over the target: one worker goroutine per shard
// plus (unless disabled) the flush timer. The caller must Close it.
func New(target Target, opts Options) (*Pipeline, error) {
	n := target.NumShards()
	if n <= 0 {
		return nil, fmt.Errorf("ingest: target reports %d shards", n)
	}
	p := &Pipeline{
		target:    target,
		opts:      opts.withDefaults(),
		rec:       opts.Recorder,
		queues:    make([]*shardQueue, n),
		degraded:  make([]atomic.Bool, n),
		closeDone: make(chan struct{}),
	}
	p.notFull.L = &p.mu
	p.maxFree = n * (p.opts.MaxPending/p.opts.MaxBatch + 1)
	for i := range p.queues {
		p.queues[i] = newShardQueue()
	}
	p.workers.Add(n)
	for i := 0; i < n; i++ {
		go p.runWorker(i)
	}
	if p.opts.FlushInterval > 0 {
		p.timerStop = make(chan struct{})
		p.timerDone = make(chan struct{})
		go p.runTimer()
	}
	return p, nil
}

// MustNew is New for known-valid targets; it panics on error.
func MustNew(target Target, opts Options) *Pipeline {
	p, err := New(target, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Push admits one update. Under Block it waits for budget; under Reject it
// returns ErrBackpressure when the in-flight budget is exhausted. Returns
// ErrClosed after Close.
func (p *Pipeline) Push(u Update) error {
	return p.PushBatch([]Update{u})
}

// PushBatch admits a sequence of updates in order, amortizing one lock
// acquisition across the slice. Under Block a batch larger than the free
// budget is admitted in chunks as workers drain; under Reject the push
// fails without admitting anything unless the whole batch fits.
func (p *Pipeline) PushBatch(ops []Update) error {
	if len(ops) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.walDegraded.Load() {
		// Durability is gone; shed rather than acknowledge updates the
		// pipeline can no longer log (regardless of backpressure policy).
		p.rec.rejected()
		return ErrDegraded
	}
	if p.opts.Policy == Reject && p.opts.MaxPending-p.pending < len(ops) {
		// Hand whatever is buffered to the workers so the backlog drains
		// even if the caller never pushes again, then fail fast.
		//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
		p.flushLocked()
		p.rec.rejected()
		return ErrBackpressure
	}
	for len(ops) > 0 {
		for p.pending >= p.opts.MaxPending && !p.closed {
			// The budget may be held entirely by the unflushed buffer; flush
			// it so the workers can free budget while we wait.
			//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
			p.flushLocked()
			p.notFull.Wait()
		}
		if p.closed {
			return ErrClosed
		}
		n := p.opts.MaxPending - p.pending
		if n > len(ops) {
			n = len(ops)
		}
		p.buf = append(p.buf, ops[:n]...)
		p.pending += n
		p.pushed += uint64(n)
		ops = ops[n:]
		if p.rec != nil {
			p.rec.QueueDepth.Set(int64(p.pending))
		}
		if len(p.buf) >= p.opts.MaxBatch {
			//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
			p.flushLocked()
		}
	}
	return nil
}

// rejected is a nil-safe reject-counter bump.
func (r *Recorder) rejected() {
	if r != nil {
		r.Rejected.Inc()
	}
}

// flushLocked appends the buffer to the WAL (if any), then partitions it
// into per-shard ordered sub-batches and hands them to the shard queues.
// Caller holds p.mu — which is what makes the WAL an exact prefix of the
// admitted stream: appends happen in push order with no interleaving.
func (p *Pipeline) flushLocked() {
	if len(p.buf) == 0 {
		return
	}
	if p.opts.WAL != nil && !p.walDegraded.Load() {
		if err := p.appendWAL(p.buf); err != nil {
			// Persistent WAL failure: durability is lost from here on.
			// Keep applying the already-admitted tail in memory so reads
			// stay coherent, but flip the degraded flag so new pushes are
			// shed with ErrDegraded instead of silently acknowledged.
			p.walDegraded.Store(true)
			if p.rec != nil {
				p.rec.WALFailures.Inc()
				p.rec.DegradedMode.Set(1)
			}
		}
	}
	now := time.Now()
	n := len(p.queues)
	if p.counts == nil {
		p.counts = make([]int, n)
		p.parts = make([][]Update, n)
	}
	for s := range p.counts {
		p.counts[s] = 0
	}
	if cap(p.shardIdx) < len(p.buf) {
		p.shardIdx = make([]int32, len(p.buf))
	}
	idx := p.shardIdx[:len(p.buf)]
	for i := range p.buf {
		s := p.target.ShardOf(p.buf[i].Src)
		idx[i] = int32(s)
		p.counts[s]++
	}
	for s, c := range p.counts {
		if c > 0 {
			p.parts[s] = p.getPart(c)
		}
	}
	for i, u := range p.buf {
		s := idx[i]
		p.parts[s] = append(p.parts[s], u)
	}
	p.buf = p.buf[:0]
	if p.rec != nil {
		p.rec.Flushes.Inc()
	}
	for s, part := range p.parts {
		if len(part) > 0 {
			p.queues[s].push(job{ops: part, at: now})
		}
		p.parts[s] = nil // ownership moved to the queue/worker
	}
}

// getPart returns a recycled sub-batch buffer (empty, capacity ≥ n when
// one of that size has circulated before) or a fresh one. Fresh buffers
// get 25% headroom so the per-flush jitter in shard sizes doesn't keep
// invalidating recycled capacities.
func (p *Pipeline) getPart(n int) []Update {
	p.freeMu.Lock()
	if last := len(p.freeParts) - 1; last >= 0 {
		s := p.freeParts[last]
		p.freeParts[last] = nil
		p.freeParts = p.freeParts[:last]
		p.freeMu.Unlock()
		if cap(s) >= n {
			return s[:0]
		}
	} else {
		p.freeMu.Unlock()
	}
	return make([]Update, 0, n+n/4)
}

// putPart returns a drained sub-batch buffer to the free list. The list is
// bounded so a burst's buffers don't pin memory forever.
func (p *Pipeline) putPart(s []Update) {
	if s == nil {
		return
	}
	p.freeMu.Lock()
	if len(p.freeParts) < p.maxFree {
		p.freeParts = append(p.freeParts, s[:0])
	}
	p.freeMu.Unlock()
}

// runTimer fires time-triggered flushes until Close.
func (p *Pipeline) runTimer() {
	defer close(p.timerDone)
	t := time.NewTicker(p.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-p.timerStop:
			return
		case <-t.C:
			p.mu.Lock()
			if !p.closed {
				//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
				p.flushLocked()
			}
			p.mu.Unlock()
		}
	}
}

// runWorker drains one shard's queue until it is closed and empty. A
// worker never dies: panics are contained per job, so a poisoned shard
// degrades (drops its ops) while the worker keeps acking barriers — Flush
// and Close complete, and every other shard stays live.
func (p *Pipeline) runWorker(shard int) {
	defer p.workers.Done()
	q := p.queues[shard]
	for {
		j, ok := q.pop()
		if !ok {
			return
		}
		if j.ack != nil {
			j.ack <- struct{}{}
			continue
		}
		if p.degraded[shard].Load() {
			p.dropJob(j)
		} else {
			p.applyJob(shard, j)
		}
		// The sub-batch is fully applied or dropped either way; recycle
		// its buffer for a later flush.
		p.putPart(j.ops)
	}
}

// applyJob applies one sub-batch, containing panics: a panicking shard is
// marked degraded and the job's ops counted dropped (pending is still
// released, so barriers and blocked pushers never hang on a dead shard).
// When a WAL is attached the dropped ops are already logged, so recovery
// repairs the loss.
func (p *Pipeline) applyJob(shard int, j job) {
	defer func() {
		if r := recover(); r != nil {
			p.markDegraded(shard)
			p.totals.mu.Lock()
			p.totals.panics++
			p.totals.mu.Unlock()
			if p.rec != nil {
				p.rec.WorkerPanics.Inc()
			}
			p.dropJob(j)
		}
	}()
	start := time.Now()
	ins, del, err := p.applyShard(shard, j.ops)
	if err != nil {
		p.markDegraded(shard)
		p.dropJob(j)
		return
	}
	if p.rec != nil {
		done := time.Now()
		p.rec.ApplyLatency.ObserveDuration(done.Sub(start))
		p.rec.FlushLatency.ObserveDuration(done.Sub(j.at))
		p.rec.BatchSize.Observe(uint64(len(j.ops)))
	}
	p.totals.mu.Lock()
	p.totals.inserted += uint64(ins)
	p.totals.deleted += uint64(del)
	p.totals.mu.Unlock()
	p.release(len(j.ops))
}

// applyShard runs the target apply with bounded retries against the
// "ingest/apply" failpoint (the injection hook for transient shard
// failures); exhausted retries degrade the shard via applyJob's error path.
func (p *Pipeline) applyShard(shard int, ops []Update) (int, int, error) {
	for attempt := 0; ; attempt++ {
		if err := faultinject.Inject("ingest/apply"); err != nil {
			if attempt >= p.opts.MaxRetries {
				return 0, 0, fmt.Errorf("ingest: shard %d apply failed after %d attempts: %w", shard, attempt+1, err)
			}
			if p.rec != nil {
				p.rec.Retries.Inc()
			}
			p.backoff(attempt)
			continue
		}
		ins, del := p.target.ApplyShard(shard, ops)
		return ins, del, nil
	}
}

// appendWAL appends one coalesced flush with bounded retries. Sticky log
// failures (ErrFailed: possibly torn tail, appending would corrupt;
// ErrClosed) are not retried. Caller holds p.mu, so backoff sleeps stall
// admission — bounded by MaxRetries doublings of RetryBase.
func (p *Pipeline) appendWAL(ops []Update) error {
	for attempt := 0; ; attempt++ {
		_, err := p.opts.WAL.Append(ops)
		if err == nil {
			return nil
		}
		if errors.Is(err, wal.ErrFailed) || errors.Is(err, wal.ErrClosed) || attempt >= p.opts.MaxRetries {
			return err
		}
		if p.rec != nil {
			p.rec.Retries.Inc()
		}
		p.backoff(attempt)
	}
}

// backoff sleeps 2^attempt × RetryBase (capped at 50ms) with half-width
// jitter so concurrent retriers decorrelate.
func (p *Pipeline) backoff(attempt int) {
	d := p.opts.RetryBase << uint(attempt)
	if max := 50 * time.Millisecond; d > max || d <= 0 {
		d = max
	}
	time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d/2)+1)))
}

// markDegraded flips shard into the dropping state (idempotently).
func (p *Pipeline) markDegraded(shard int) {
	if p.degraded[shard].CompareAndSwap(false, true) {
		n := p.degradedShards.Add(1)
		if p.rec != nil {
			p.rec.DegradedShards.Set(int64(n))
			p.rec.DegradedMode.Set(1)
		}
	}
}

// dropJob discards a job's ops (degraded shard) while still releasing
// their admission budget.
func (p *Pipeline) dropJob(j job) {
	p.totals.mu.Lock()
	p.totals.dropped += uint64(len(j.ops))
	p.totals.mu.Unlock()
	if p.rec != nil {
		p.rec.Dropped.Add(uint64(len(j.ops)))
	}
	p.release(len(j.ops))
}

// release returns n updates' worth of admission budget.
func (p *Pipeline) release(n int) {
	p.mu.Lock()
	p.pending -= n
	if p.rec != nil {
		p.rec.QueueDepth.Set(int64(p.pending))
	}
	p.notFull.Broadcast()
	p.mu.Unlock()
}

// Flush is the read-your-writes barrier: it flushes the buffer and returns
// once every update admitted before the call has been applied to its
// shard. Concurrent pushes may land behind the barrier; they are not
// waited for. Calling Flush on a closed pipeline returns immediately.
// Flush ignores failures; durability-sensitive callers use FlushSync.
func (p *Pipeline) Flush() { _ = p.FlushSync() }

// FlushSync is Flush with the failure surface exposed: it additionally
// fsyncs the WAL (if attached) once the barrier completes — the
// acknowledged-means-durable point — and reports ErrTimeout when the
// barrier misses FlushTimeout, the WAL sync error, or ErrDegraded when a
// shard or the WAL has degraded (the applied state is partial / the log
// has stopped).
func (p *Pipeline) FlushSync() error {
	p.mu.Lock()
	//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
	p.flushLocked()
	p.mu.Unlock()
	if err := p.barrier(p.opts.FlushTimeout); err != nil {
		return err
	}
	if p.opts.WAL != nil && !p.walDegraded.Load() {
		if err := p.opts.WAL.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return fmt.Errorf("ingest: flush: wal sync: %w", err)
		}
	}
	if p.walDegraded.Load() || p.degradedShards.Load() > 0 {
		return ErrDegraded
	}
	return nil
}

// barrier pushes an ack job down every live queue and waits for the acks,
// bounded by timeout when positive.
func (p *Pipeline) barrier(timeout time.Duration) error {
	ack := make(chan struct{}, len(p.queues))
	sent := 0
	for _, q := range p.queues {
		if q.push(job{ack: ack}) {
			sent++
		}
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for i := 0; i < sent; i++ {
		select {
		case <-ack:
		case <-deadline:
			return fmt.Errorf("ingest: flush barrier (%d/%d shards): %w", i, sent, ErrTimeout)
		}
	}
	return nil
}

// Pending reports updates admitted but not yet applied.
func (p *Pipeline) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Totals snapshots the pipeline's lifetime counters. Safe at any time; the
// inserted/deleted counts trail pushes by whatever is still in flight.
func (p *Pipeline) Totals() Totals {
	p.mu.Lock()
	pushed := p.pushed
	p.mu.Unlock()
	p.totals.mu.Lock()
	defer p.totals.mu.Unlock()
	return Totals{
		Pushed:         pushed,
		Inserted:       p.totals.inserted,
		Deleted:        p.totals.deleted,
		Dropped:        p.totals.dropped,
		Panics:         p.totals.panics,
		DegradedShards: int(p.degradedShards.Load()),
		WALDegraded:    p.walDegraded.Load(),
	}
}

// Close drains everything admitted so far, stops the timer and the
// workers, fsyncs the WAL (if attached), and returns the final totals.
// Blocked pushers are released with ErrClosed. Close is idempotent and
// safe under concurrency: the first caller performs the shutdown, every
// later (or concurrent) caller blocks until that shutdown finishes and
// then gets the same final totals plus ErrClosed. A positive FlushTimeout
// bounds the drain; on ErrTimeout the workers are left to finish in the
// background and the totals are a snapshot.
func (p *Pipeline) Close() (Totals, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.closeDone
		return p.closeTotals, ErrClosed
	}
	p.closed = true
	//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
	p.flushLocked()
	p.notFull.Broadcast()
	p.mu.Unlock()
	if p.timerStop != nil {
		close(p.timerStop)
		<-p.timerDone
	}
	for _, q := range p.queues {
		q.close()
	}
	var err error
	if p.opts.FlushTimeout > 0 {
		drained := make(chan struct{})
		go func() { p.workers.Wait(); close(drained) }()
		t := time.NewTimer(p.opts.FlushTimeout)
		defer t.Stop()
		select {
		case <-drained:
		case <-t.C:
			err = fmt.Errorf("ingest: close drain: %w", ErrTimeout)
		}
	} else {
		p.workers.Wait()
	}
	if err == nil && p.opts.WAL != nil && !p.walDegraded.Load() {
		if serr := p.opts.WAL.Sync(); serr != nil && !errors.Is(serr, wal.ErrClosed) {
			err = fmt.Errorf("ingest: close: wal sync: %w", serr)
		}
	}
	p.closeTotals = p.Totals()
	close(p.closeDone)
	return p.closeTotals, err
}

// Abort shuts the pipeline down without draining: the coalescing buffer
// and every queued sub-batch are discarded, workers exit after at most one
// in-flight job, and blocked pushers are released with ErrClosed. The WAL,
// if any, is left exactly as-is — not flushed, not synced — so Abort plus
// wal.Log.Crash models a process killed mid-stream for the chaos suite.
func (p *Pipeline) Abort() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.closeDone
		return
	}
	p.closed = true
	p.buf = p.buf[:0]
	p.notFull.Broadcast()
	p.mu.Unlock()
	if p.timerStop != nil {
		close(p.timerStop)
		<-p.timerDone
	}
	for _, q := range p.queues {
		q.abort()
	}
	p.workers.Wait()
	p.closeTotals = p.Totals()
	close(p.closeDone)
}
