// Package ingest is the streaming ingestion subsystem: it accepts an
// unbounded stream of edge insert/delete updates, coalesces them into
// batches (size- and time-triggered flush) with bounded admission and
// caller-selectable backpressure (block or reject-with-error), and hands
// each flush whole to the target's ApplyOps. One applier goroutine drains
// the sealed flushes in order; a sharded target splits each one over its
// shards on the process's apply helper pool (core.Parallel.ApplyOps), the
// same batch entry WAL replay and replication followers use.
//
// Ordering and consistency model: flushes are applied one at a time in
// the order they were sealed, and ApplyOps keeps each (Src, Dst) pair's
// ops in order, so the drained target converges to exactly the state a
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

// Target is the write surface a pipeline drains into: the WAL replay
// target's method set, NumShards plus ApplyOps. *core.Parallel satisfies
// it; tests substitute instrumented fakes. ApplyOps is called from the
// pipeline's one applier goroutine, so calls never overlap, and its ops
// slice is a recycled flush buffer, valid only for the duration of the
// call.
type Target = wal.ReplayTarget

// Policy selects what Push does when the pipeline's admission budget is
// exhausted.
type Policy uint8

const (
	// Block makes Push wait until the applier frees budget (default).
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
// FlushSync also reports it once a contained apply panic or exhausted
// apply retries have degraded the pipeline, so callers learn the applied
// state is partial.
var ErrDegraded = errors.New("ingest: pipeline degraded")

// ErrTimeout is returned when a FlushSync or Close barrier misses the
// configured FlushTimeout deadline.
var ErrTimeout = errors.New("ingest: deadline exceeded")

// Options configures a pipeline; zero values select the defaults.
type Options struct {
	// MaxBatch is the size-triggered flush threshold: the coalescing
	// buffer is sealed and queued for the applier when it holds this many
	// updates (default 8192).
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
	// lock) before queueing it for the applier, so the log is always an
	// exact prefix of the admitted stream. FlushSync and Close fsync the
	// log at their barrier. The pipeline does not Open or Close the log;
	// ownership stays with the caller.
	WAL *wal.Log
	// FlushTimeout, when positive, bounds how long FlushSync and Close wait
	// for their barrier before giving up with ErrTimeout (default 0: wait
	// forever).
	FlushTimeout time.Duration
	// MaxRetries bounds transient-failure retries on WAL appends and
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
	// removed live edges), as reported by ApplyOps.
	Inserted uint64 `json:"inserted"`
	Deleted  uint64 `json:"deleted"`
	// Dropped counts admitted updates discarded because the pipeline was
	// degraded by a contained panic or exhausted apply retries. They are
	// missing from the in-memory store but — when a WAL is attached — still
	// in the log, so recovery restores them.
	Dropped uint64 `json:"dropped"`
	// Panics counts apply panics contained by the pipeline.
	Panics uint64 `json:"panics"`
	// DegradedShards counts shards in the degraded (dropping) state:
	// degradation covers the whole pipeline, so it is 0 or NumShards.
	DegradedShards int `json:"degraded_shards"`
	// WALDegraded reports that WAL appends were abandoned after persistent
	// failure; pushes are shed with ErrDegraded once this is set.
	WALDegraded bool `json:"wal_degraded"`
}

// job is one unit the applier takes from the FIFO: either a sealed flush
// or a barrier marker (ack non-nil), closed once everything queued ahead
// of it has been applied.
type job struct {
	ops []Update
	at  time.Time
	ack chan struct{}
}

// Pipeline is the streaming coalescer; see the package comment for the
// ordering/consistency model. All methods are safe for concurrent use.
type Pipeline struct {
	target Target
	opts   Options
	rec    *Recorder
	shards int

	mu      sync.Mutex
	notFull sync.Cond
	buf     []Update
	pending int // admitted but unapplied updates
	closed  bool
	tot     Totals // Pushed, Inserted, Deleted, Dropped and Panics

	// queue is the FIFO of sealed flushes and barriers the applier drains,
	// head-indexed so its backing array is reused once it empties.
	queue []job
	head  int
	// free recycles applied flush buffers as the next coalescing buffer,
	// so steady-state coalescing allocates nothing. A buffer never holds
	// more than MaxBatch updates, and the list keeps at most what the
	// admission budget can have in flight, MaxPending/MaxBatch + 1.
	free    [][]Update
	maxFree int

	// wake carries one pending wake-up to the applier (a flush was sealed
	// or the pipeline shut down).
	wake        chan struct{}
	applierDone chan struct{}

	// degraded marks the pipeline as dropping (contained panic or
	// exhausted apply retries); walDegraded is the durability-loss flag.
	degraded    atomic.Bool
	walDegraded atomic.Bool
	closeDone   chan struct{} // closed once shutdown (Close/Abort) finishes
	closeTotals Totals
}

// New starts a pipeline over the target and its one applier goroutine,
// which also runs the flush timer. The caller must Close it.
func New(target Target, opts Options) (*Pipeline, error) {
	n := target.NumShards()
	if n <= 0 {
		return nil, fmt.Errorf("ingest: target reports %d shards", n)
	}
	p := &Pipeline{
		target:      target,
		opts:        opts.withDefaults(),
		rec:         opts.Recorder,
		shards:      n,
		wake:        make(chan struct{}, 1),
		applierDone: make(chan struct{}),
		closeDone:   make(chan struct{}),
	}
	p.notFull.L = &p.mu
	p.maxFree = p.opts.MaxPending/p.opts.MaxBatch + 1
	go p.runApplier()
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
// budget is admitted in chunks as the applier drains; under Reject the
// push fails without admitting anything unless the whole batch fits.
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
		// Hand whatever is buffered to the applier so the backlog drains
		// even if the caller never pushes again, then fail fast.
		//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
		p.flushLocked()
		p.rec.rejected()
		return ErrBackpressure
	}
	for len(ops) > 0 {
		for p.pending >= p.opts.MaxPending && !p.closed {
			// The budget may be held entirely by the unflushed buffer; flush
			// it so the applier can free budget while we wait.
			//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
			p.flushLocked()
			p.notFull.Wait()
		}
		if p.closed {
			return ErrClosed
		}
		n := min(len(ops), p.opts.MaxPending-p.pending, p.opts.MaxBatch-len(p.buf))
		p.growLocked(n)
		p.buf = append(p.buf, ops[:n]...)
		p.pending += n
		p.tot.Pushed += uint64(n)
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

// growLocked makes room for n more updates in the coalescing buffer,
// doubling its capacity up to MaxBatch, so a buffer is never larger than
// one flush. Caller holds p.mu.
func (p *Pipeline) growLocked(n int) {
	if len(p.buf)+n <= cap(p.buf) {
		return
	}
	b := make([]Update, len(p.buf), min(max(2*cap(p.buf), len(p.buf)+n), p.opts.MaxBatch))
	copy(b, p.buf)
	p.buf = b
}

// rejected is a nil-safe reject-counter bump.
func (r *Recorder) rejected() {
	if r != nil {
		r.Rejected.Inc()
	}
}

// flushLocked appends the buffer to the WAL (if any), then seals it onto
// the applier's FIFO and takes a recycled buffer in its place. Caller
// holds p.mu — which is what makes the WAL an exact prefix of the
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
	p.enqueueLocked(job{ops: p.buf, at: time.Now()})
	p.buf = nil
	if last := len(p.free) - 1; last >= 0 {
		p.buf = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
	}
	if p.rec != nil {
		p.rec.Flushes.Inc()
	}
}

// enqueueLocked appends a job to the applier's FIFO and wakes the
// applier. Caller holds p.mu.
func (p *Pipeline) enqueueLocked(j job) {
	p.queue = append(p.queue, j)
	p.signal()
}

// signal leaves the applier one wake-up; a pending one already covers it.
func (p *Pipeline) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// runApplier is the pipeline's one goroutine: it applies sealed flushes
// and acks barriers in FIFO order, and fires the time-triggered flushes,
// until the pipeline is shut down and the FIFO is empty.
func (p *Pipeline) runApplier() {
	defer close(p.applierDone)
	var tick <-chan time.Time
	if p.opts.FlushInterval > 0 {
		t := time.NewTicker(p.opts.FlushInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		j, ok := p.next(tick)
		if !ok {
			return
		}
		if j.ack != nil {
			close(j.ack)
			continue
		}
		p.applyJob(j)
	}
}

// next pops the FIFO's head, waiting for a job and running the timer's
// flushes meanwhile; ok=false means shut down and drained.
func (p *Pipeline) next(tick <-chan time.Time) (j job, ok bool) {
	for {
		p.mu.Lock()
		if p.head < len(p.queue) {
			j = p.queue[p.head]
			p.queue[p.head] = job{} // the FIFO must not pin a recycled buffer
			if p.head++; p.head == len(p.queue) {
				p.queue, p.head = p.queue[:0], 0
			}
			p.mu.Unlock()
			return j, true
		}
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return job{}, false
		}
		select {
		case <-p.wake:
		case <-tick:
			p.mu.Lock()
			if !p.closed {
				//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
				p.flushLocked()
			}
			p.mu.Unlock()
		}
	}
}

// applyJob applies one sealed flush, or drops it whole once the pipeline
// has degraded, then returns its admission budget and recycles its
// buffer. Dropped ops are already in the WAL when one is attached, so
// recovery repairs the loss.
func (p *Pipeline) applyJob(j job) {
	ins, del, err := 0, 0, ErrDegraded
	if !p.degraded.Load() {
		ins, del, err = p.applyOps(j)
	}
	if err != nil && p.degraded.CompareAndSwap(false, true) && p.rec != nil {
		p.rec.DegradedShards.Set(int64(p.shards))
		p.rec.DegradedMode.Set(1)
	}
	n := len(j.ops)
	if err != nil && p.rec != nil {
		p.rec.Dropped.Add(uint64(n))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.tot.Dropped += uint64(n)
	} else {
		p.tot.Inserted += uint64(ins)
		p.tot.Deleted += uint64(del)
	}
	if errors.Is(err, errPanicked) {
		p.tot.Panics++
	}
	p.pending -= n
	if len(p.free) < p.maxFree {
		p.free = append(p.free, j.ops[:0])
	}
	if p.rec != nil {
		p.rec.QueueDepth.Set(int64(p.pending))
	}
	p.notFull.Broadcast()
}

// errPanicked marks an apply that panicked and was contained.
var errPanicked = errors.New("ingest: apply panicked")

// applyOps runs the target apply with bounded retries against the
// "ingest/apply" failpoint (the injection hook for transient apply
// failures). A panic is contained; it and exhausted retries are errors,
// which degrade the pipeline.
func (p *Pipeline) applyOps(j job) (ins, del int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if p.rec != nil {
				p.rec.WorkerPanics.Inc()
			}
			err = fmt.Errorf("%w: %v", errPanicked, r)
		}
	}()
	for attempt := 0; ; attempt++ {
		ferr := faultinject.Inject("ingest/apply")
		if ferr == nil {
			break
		}
		if attempt >= p.opts.MaxRetries {
			return 0, 0, fmt.Errorf("ingest: apply failed after %d attempts: %w", attempt+1, ferr)
		}
		if p.rec != nil {
			p.rec.Retries.Inc()
		}
		p.backoff(attempt)
	}
	start := time.Now()
	ins, del = p.target.ApplyOps(j.ops)
	if p.rec != nil {
		done := time.Now()
		p.rec.ApplyLatency.ObserveDuration(done.Sub(start))
		p.rec.FlushLatency.ObserveDuration(done.Sub(j.at))
		p.rec.BatchSize.Observe(uint64(len(j.ops)))
	}
	return ins, del, nil
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

// Flush is the read-your-writes barrier: it flushes the buffer and returns
// once every update admitted before the call has been applied.
// Concurrent pushes may land behind the barrier; they are not waited
// for. Calling Flush on a closed pipeline returns immediately. Flush
// ignores failures; durability-sensitive callers use FlushSync.
func (p *Pipeline) Flush() { _ = p.FlushSync() }

// FlushSync is Flush with the failure surface exposed: it additionally
// fsyncs the WAL (if attached) once the barrier completes — the
// acknowledged-means-durable point — and reports ErrTimeout when the
// barrier misses FlushTimeout, the WAL sync error, or ErrDegraded when
// the pipeline or the WAL has degraded (the applied state is partial /
// the log has stopped).
func (p *Pipeline) FlushSync() error {
	var ack chan struct{}
	p.mu.Lock()
	//gtlint:ignore lockhold WAL retry backoff under p.mu is deliberate: producers must stall while durability recovers (see Options.RetryBase)
	p.flushLocked()
	if !p.closed {
		ack = make(chan struct{})
		p.enqueueLocked(job{ack: ack})
	}
	p.mu.Unlock()
	if ack != nil {
		if err := wait(ack, p.opts.FlushTimeout); err != nil {
			return fmt.Errorf("ingest: flush barrier: %w", err)
		}
	}
	if p.opts.WAL != nil && !p.walDegraded.Load() {
		if err := p.opts.WAL.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return fmt.Errorf("ingest: flush: wal sync: %w", err)
		}
	}
	if p.walDegraded.Load() || p.degraded.Load() {
		return ErrDegraded
	}
	return nil
}

// wait blocks until done is closed, or returns ErrTimeout once a positive
// timeout has passed.
func wait(done <-chan struct{}, timeout time.Duration) error {
	if timeout <= 0 {
		<-done
		return nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		return ErrTimeout
	}
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
	t := p.tot
	p.mu.Unlock()
	if p.degraded.Load() {
		t.DegradedShards = p.shards
	}
	t.WALDegraded = p.walDegraded.Load()
	return t
}

// Close drains everything admitted so far, stops the applier, fsyncs the
// WAL (if attached), and returns the final totals. Blocked pushers are
// released with ErrClosed. Close is idempotent and safe under
// concurrency: the first caller performs the shutdown, every later (or
// concurrent) caller blocks until that shutdown finishes and then gets the
// same final totals plus ErrClosed. A positive FlushTimeout bounds the
// drain; on ErrTimeout the applier is left to finish in the background
// and the totals are a snapshot.
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
	p.signal()
	p.notFull.Broadcast()
	p.mu.Unlock()
	var err error
	if werr := wait(p.applierDone, p.opts.FlushTimeout); werr != nil {
		err = fmt.Errorf("ingest: close drain: %w", werr)
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
// and every queued flush are discarded, the applier exits after at most
// one in-flight flush, and blocked pushers and waiting barriers are
// released. The WAL, if any, is left exactly as-is — not flushed, not
// synced — so Abort plus wal.Log.Crash models a process killed mid-stream
// for the chaos suite.
func (p *Pipeline) Abort() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.closeDone
		return
	}
	p.closed = true
	p.buf = p.buf[:0]
	for _, j := range p.queue[p.head:] {
		if j.ack != nil {
			close(j.ack)
		}
	}
	p.queue, p.head = nil, 0
	p.signal()
	p.notFull.Broadcast()
	p.mu.Unlock()
	<-p.applierDone
	p.closeTotals = p.Totals()
	close(p.closeDone)
}
