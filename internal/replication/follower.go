package replication

// Follower side of WAL shipping. A follower owns a full durability
// directory of its own — manifest, checkpoint snapshot, segmented WAL —
// and applies the primary's stream with the same WAL-before-apply
// discipline the primary's ingest path uses: every received record is
// appended (and made durable by the follower's own sync policy) before it
// touches the store. Recovery after a follower crash is therefore exactly
// the primary's recovery path: load snapshot, replay WAL tail, reconnect
// from NextLSN. The primary resends anything past that position and the
// continuity check drops anything already logged, so a crash can neither
// lose nor double-apply an op.
//
// State machine: Idle → (Run) → Syncing (snapshot bootstrap, only when
// the follower's position was pruned on the primary) → CatchingUp →
// Live, where Live means applied ≥ the primary's durable frontier as of
// the last frame. WaitForLSN gives read-your-writes against any state.
//
// Promotion seals the stream: Promote disconnects, fsyncs the WAL,
// persists epoch+1 in the manifest (failpoint repl/promote covers a crash
// just before that write lands), and closes. The caller reopens the
// directory as a primary; the bumped epoch fences the old one off.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/faultinject"
	"graphtinker/internal/wal"
)

// State is the follower's replication phase.
type State int32

const (
	// StateIdle: open but not connected to a primary.
	StateIdle State = iota
	// StateSyncing: installing a snapshot bootstrap.
	StateSyncing
	// StateCatchingUp: applying records, still behind the primary's
	// durable frontier as of the handshake.
	StateCatchingUp
	// StateLive: applied everything the primary has reported durable.
	StateLive
	// StateSealed: promoted or closed; no further stream activity.
	StateSealed
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateSyncing:
		return "syncing"
	case StateCatchingUp:
		return "catching-up"
	case StateLive:
		return "live"
	case StateSealed:
		return "sealed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrFollowerClosed is returned once the follower is closed or promoted.
var ErrFollowerClosed = errors.New("replication: follower closed")

// ErrWaitTimeout is returned by WaitForLSN when the deadline passes
// before the follower applies the requested position.
var ErrWaitTimeout = errors.New("replication: WaitForLSN timeout")

// ErrFollowerDegraded marks a follower whose in-memory store may be
// behind its own WAL (an apply-path failure fired mid-record). Reads
// bounded by AppliedLSN remain consistent, but the stream will not
// resume; reopen the directory to recover.
var ErrFollowerDegraded = errors.New("replication: follower degraded (apply failed mid-record); reopen the directory to recover")

// FollowerOptions configures OpenFollower.
type FollowerOptions struct {
	// Shards is the store width for a fresh directory (default 4); a
	// snapshot bootstrap adopts the primary's width instead.
	Shards int
	// WAL configures the follower's own log (InitialLSN is managed by the
	// durability directory).
	WAL wal.Options
	// Recorder, when non-nil, receives apply-side replication telemetry.
	Recorder *Recorder
}

// FollowerRecovery reports what opening a follower directory restored.
type FollowerRecovery struct {
	Recovered   bool   `json:"recovered"`
	SnapshotOps uint64 `json:"snapshot_ops"`
	ReplayedOps uint64 `json:"replayed_ops"`
	Epoch       uint64 `json:"epoch"`
}

// Follower replays a primary's stream into its own durable store.
// Queries (Store, AppliedLSN, WaitForLSN) are safe concurrently with Run;
// Run itself is single-flight.
type Follower struct {
	dir  *wal.Dir // its Log() is swapped by a bootstrap; only the stream goroutine (or its joiner) touches it
	rec  *Recorder
	info FollowerRecovery

	storeMu sync.RWMutex // a snapshot bootstrap swaps the store
	store   *core.Parallel

	applied    atomic.Uint64 // LSN after the last op applied to the store
	primaryLSN atomic.Uint64 // primary's durable frontier as of the last frame
	state      atomic.Int32

	mu       sync.Mutex
	epoch    uint64
	notify   chan struct{} // closed+replaced when applied advances or the follower seals
	conn     *frameConn    // live connection, nil when idle
	running  bool
	sealed   bool
	closed   bool
	degraded bool
	runWG    sync.WaitGroup
}

// OpenFollower opens (or creates) a follower durability directory,
// recovering prior state exactly like OpenDurableStream — validated
// snapshot, then idempotent WAL-tail replay — except that a log the
// snapshot wholly covers (a crash between a bootstrap's manifest install
// and its log reset) is discarded rather than refused. The follower serves
// reads immediately; call Run (or Dial via the facade) to attach a primary.
func OpenFollower(cfg core.Config, dir string, opts FollowerOptions) (*Follower, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	var store *core.Parallel
	d, info, err := wal.OpenDir(dir, opts.WAL, wal.DiscardCoveredLog, wal.ParallelLoader(cfg, opts.Shards, &store))
	if err != nil {
		return nil, err
	}
	epoch := d.Epoch()
	f := &Follower{
		dir: d,
		rec: opts.Recorder,
		info: FollowerRecovery{
			Recovered:   info.Recovered,
			SnapshotOps: info.SnapshotOps,
			ReplayedOps: info.ReplayedOps,
			Epoch:       epoch,
		},
		store:  store,
		epoch:  epoch,
		notify: make(chan struct{}),
	}
	f.applied.Store(d.Log().NextLSN())
	f.state.Store(int32(StateIdle))
	return f, nil
}

// Recovery reports what opening the directory restored.
func (f *Follower) Recovery() FollowerRecovery { return f.info }

// Store exposes the replica for queries. Do not mutate it — the stream
// owns writes. The pointer is stable except across a snapshot bootstrap;
// prefer calling Store per read batch rather than caching it.
func (f *Follower) Store() *core.Parallel {
	f.storeMu.RLock()
	defer f.storeMu.RUnlock()
	return f.store
}

// AppliedLSN is the replica's position: every op below it is applied.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// Epoch returns the follower's replication term.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// State reports the replication phase.
func (f *Follower) State() State { return State(f.state.Load()) }

// Lag reports the follower's apply lag in ops against the primary's
// durable frontier as of the last received frame (0 when idle or ahead).
func (f *Follower) Lag() uint64 {
	p, a := f.primaryLSN.Load(), f.applied.Load()
	if p <= a {
		return 0
	}
	return p - a
}

// WaitForLSN blocks until the replica has applied every op below lsn —
// the read-your-writes barrier: a client that observed the primary ack
// LSN n calls WaitForLSN(n) and then reads its own writes from the
// replica. A non-positive timeout waits forever.
func (f *Follower) WaitForLSN(lsn uint64, timeout time.Duration) error {
	if f.applied.Load() >= lsn {
		return nil
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		f.mu.Lock()
		if f.applied.Load() >= lsn {
			f.mu.Unlock()
			return nil
		}
		if f.closed || f.sealed {
			f.mu.Unlock()
			return ErrFollowerClosed
		}
		if f.degraded {
			f.mu.Unlock()
			return ErrFollowerDegraded
		}
		ch := f.notify
		f.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return ErrWaitTimeout
		}
	}
}

// Dial connects to a primary at addr and runs the stream until it ends.
func (f *Follower) Dial(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("replication: follower: %w", err)
	}
	return f.Run(conn)
}

// Run attaches conn as the primary stream and blocks until it ends: the
// connection drops, the primary refuses us, Promote/Close seals the
// follower (returns nil), or an error. It owns conn and closes it on
// return. Single-flight: a second concurrent Run is refused.
func (f *Follower) Run(conn net.Conn) (err error) {
	fc := newFrameConn(conn, f.rec)
	f.mu.Lock()
	if f.closed || f.sealed {
		f.mu.Unlock()
		_ = fc.Close() // refusing the conn; ErrFollowerClosed is the signal
		return ErrFollowerClosed
	}
	if f.degraded {
		f.mu.Unlock()
		_ = fc.Close()
		return ErrFollowerDegraded
	}
	if f.running {
		f.mu.Unlock()
		_ = fc.Close()
		return errors.New("replication: follower: Run already active")
	}
	f.running = true
	f.conn = fc
	f.runWG.Add(1)
	f.mu.Unlock()

	// Deferred so a panic (a chaos failpoint simulating a hard kill)
	// still releases the run slot — Crash/Close must not deadlock on a
	// stream that died mid-frame.
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.running = false
		sealed := f.sealed || f.closed
		f.mu.Unlock()
		_ = fc.Close() // stream already ended; the loop error is the signal
		f.runWG.Done()
		if sealed {
			err = nil // Promote/Close cut the connection on purpose
		} else if f.State() != StateSealed {
			f.state.Store(int32(StateIdle))
		}
	}()
	return f.runStream(fc)
}

func (f *Follower) runStream(fc *frameConn) error {
	if err := fc.send(frameHello, encodeHello(helloMsg{
		version: protocolVersion,
		epoch:   f.Epoch(),
		haveLSN: f.dir.Log().NextLSN(),
	})); err != nil {
		return err
	}
	started := false
	var ops []core.EdgeOp // every record decodes into this one buffer
	for {
		ft, payload, err := fc.recv()
		if err != nil {
			return err
		}
		switch ft {
		case frameSnapHeader:
			if started {
				return fmt.Errorf("%w: snapshot header after start", ErrBadFrame)
			}
			hdr, err := decodeSnapHeader(payload)
			if err != nil {
				return err
			}
			if err := f.checkEpoch(fc, hdr.epoch); err != nil {
				return err
			}
			f.state.Store(int32(StateSyncing))
			if err := f.installSnapshot(fc, hdr); err != nil {
				f.markDegraded()
				return err
			}
		case frameStart:
			start, err := decodeStart(payload)
			if err != nil {
				return err
			}
			if err := f.checkEpoch(fc, start.epoch); err != nil {
				return err
			}
			if have := f.dir.Log().NextLSN(); start.fromLSN != have {
				return fmt.Errorf("replication: follower at LSN %d but stream starts at %d", have, start.fromLSN)
			}
			f.observePrimary(start.durable)
			started = true
		case frameRecords:
			if !started {
				return fmt.Errorf("%w: records before start", ErrBadFrame)
			}
			var durable, firstLSN uint64
			if durable, firstLSN, ops, err = decodeRecordsFrame(payload, ops); err != nil {
				return err
			}
			if err := f.applyRecord(firstLSN, ops); err != nil {
				return err
			}
			f.observePrimary(durable)
		case frameHeartbeat:
			if len(payload) != 8 {
				return fmt.Errorf("%w: heartbeat is %d bytes, want 8", ErrBadFrame, len(payload))
			}
			f.observePrimary(binary.LittleEndian.Uint64(payload))
		case frameError:
			return peerError(payload)
		default:
			return fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, ft)
		}
	}
}

// checkEpoch enforces the fence on a stream-opening frame: an older
// primary is refused (it was deposed); a newer epoch is adopted and
// persisted before any of its records land.
func (f *Follower) checkEpoch(fc *frameConn, peer uint64) error {
	f.mu.Lock()
	mine := f.epoch
	f.mu.Unlock()
	if peer < mine {
		if f.rec != nil {
			f.rec.StaleEpochRejects.Inc()
		}
		_ = fc.send(frameError, encodeErrorFrame(errCodeStaleEpoch,
			fmt.Sprintf("follower epoch %d > primary epoch %d", mine, peer)))
		return fmt.Errorf("%w: primary at epoch %d, follower at %d", ErrStaleEpoch, peer, mine)
	}
	if peer > mine {
		if err := f.persistEpoch(peer); err != nil {
			return err
		}
	}
	return nil
}

// persistEpoch durably adopts a newer term before applying anything from
// it, so a crashed-and-recovered follower still refuses the old primary.
func (f *Follower) persistEpoch(epoch uint64) error {
	if err := f.dir.SetEpoch(epoch); err != nil {
		return err
	}
	f.mu.Lock()
	f.epoch = epoch
	f.mu.Unlock()
	return nil
}

// applyRecord runs the WAL-before-apply discipline on one shipped record.
// Re-delivery after a reconnect is dropped by the continuity check; a gap
// means the stream is broken (never skip — that silently loses ops).
func (f *Follower) applyRecord(firstLSN uint64, ops []core.EdgeOp) error {
	next := f.dir.Log().NextLSN()
	end := firstLSN + uint64(len(ops))
	if end <= next {
		if f.rec != nil {
			f.rec.DuplicateRecords.Inc()
		}
		return nil
	}
	if firstLSN > next {
		return fmt.Errorf("replication: follower at LSN %d but record starts at %d (gap)", next, firstLSN)
	}
	if firstLSN < next {
		ops = ops[next-firstLSN:] // partial re-delivery: apply only the unseen tail
	}
	if _, err := f.dir.Log().Append(ops); err != nil {
		f.markDegraded()
		return err
	}
	// The failpoint sits in the dangerous window: ops logged, store not
	// yet updated. A kill here must recover to the exact same state via
	// snapshot + replay — the idempotence the chaos suite pins.
	if err := faultinject.Inject("repl/apply"); err != nil {
		f.markDegraded()
		return fmt.Errorf("replication: follower apply: %w", err)
	}
	f.Store().ApplyOps(ops)
	if f.rec != nil {
		f.rec.RecordsApplied.Inc()
		f.rec.OpsApplied.Add(uint64(len(ops)))
	}
	f.advanceApplied(end)
	return nil
}

// installSnapshot runs the bootstrap: stream the primary's chunks into
// the directory's snapshot install (which validates nothing itself — the
// header's size and CRC are checked here, before the install commits),
// then swap the in-memory store for the installed snapshot. The install
// order and what each crash window recovers to are wal.Dir's.
func (f *Follower) installSnapshot(fc *frameConn, hdr snapHeaderMsg) error {
	err := f.dir.InstallSnapshot(hdr.lastLSN, int(hdr.shards), func(w *wal.SnapshotWriter) error {
		for {
			ft, payload, err := fc.recv()
			if err != nil {
				return err
			}
			if ft == frameSnapDone {
				break
			}
			if ft == frameError {
				return peerError(payload)
			}
			if ft != frameSnapChunk {
				return fmt.Errorf("%w: frame type %d inside snapshot bootstrap", ErrBadFrame, ft)
			}
			if _, err := w.Write(payload); err != nil {
				return err
			}
		}
		if crc, size := w.Sum(); size != hdr.size || crc != hdr.crc {
			return fmt.Errorf("bootstrap snapshot fails validation: got %d bytes crc %08x, header says %d bytes crc %08x",
				size, crc, hdr.size, hdr.crc)
		}
		// The failpoint covers the install sequence: a kill anywhere below
		// must leave the directory recoverable to either the old or the new
		// state, never a torn mix.
		return faultinject.Inject("repl/snapshot")
	})
	if err != nil {
		return fmt.Errorf("replication: follower: bootstrap: %w", err)
	}

	var nstore *core.Parallel
	err = f.dir.LoadSnapshot(func(snap *os.File) (err error) {
		nstore, err = core.ReadParallelSnapshot(snap, nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("replication: follower: bootstrap: %w", err)
	}
	f.storeMu.Lock()
	f.store = nstore
	f.storeMu.Unlock()

	if f.rec != nil {
		f.rec.SnapshotsInstalled.Inc()
	}
	f.advanceApplied(hdr.lastLSN)
	return nil
}

// observePrimary folds a reported durable frontier into the lag gauge and
// the catching-up → live transition.
func (f *Follower) observePrimary(durable uint64) {
	for {
		cur := f.primaryLSN.Load()
		if durable <= cur || f.primaryLSN.CompareAndSwap(cur, durable) {
			break
		}
	}
	f.updatePhase()
}

func (f *Follower) advanceApplied(lsn uint64) {
	f.applied.Store(lsn)
	f.mu.Lock()
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
	f.updatePhase()
}

func (f *Follower) updatePhase() {
	p, a := f.primaryLSN.Load(), f.applied.Load()
	if f.rec != nil {
		lag := int64(0)
		if p > a {
			lag = int64(p - a)
		}
		f.rec.LagOps.Set(lag)
	}
	switch State(f.state.Load()) {
	case StateCatchingUp, StateSyncing, StateIdle:
		if a >= p {
			f.state.Store(int32(StateLive))
		} else {
			f.state.Store(int32(StateCatchingUp))
		}
	case StateLive:
		if a < p {
			f.state.Store(int32(StateCatchingUp))
		}
	}
}

func (f *Follower) markDegraded() {
	f.mu.Lock()
	f.degraded = true
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
}

// Promote seals the follower and turns its directory into a primary's:
// disconnect, fsync the WAL, persist epoch+1 in the manifest, close. It
// returns the new epoch; the caller reopens the directory (now fenced
// against the old primary) to serve writes. The promoted state is exactly
// the replica's applied prefix — ops the old primary acked but never
// shipped are lost, which is the unavoidable cost of asynchronous
// replication, and why Promote pairs with WaitForLSN in any client that
// needs stronger guarantees.
// A failed Promote (e.g. the persist step erroring) leaves the follower
// sealed but open: the stream will not resume, but Promote may be
// retried, and Close still works.
func (f *Follower) Promote() (uint64, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrFollowerClosed
	}
	f.sealed = true
	conn := f.conn
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()

	if conn != nil {
		_ = conn.Close() // unparks the Run loop; Run's exit is awaited below
	}
	f.runWG.Wait()
	f.state.Store(int32(StateSealed))

	if err := f.dir.Log().Sync(); err != nil {
		return 0, err
	}
	// A kill here — after the seal, before the manifest lands — must
	// recover as a follower at the old epoch with the same applied prefix.
	if err := faultinject.Inject("repl/promote"); err != nil {
		return 0, fmt.Errorf("replication: promote: %w", err)
	}
	newEpoch := f.Epoch() + 1
	if err := f.dir.SetEpoch(newEpoch); err != nil {
		return 0, err
	}

	f.mu.Lock()
	f.epoch = newEpoch
	f.closed = true
	f.mu.Unlock()
	return newEpoch, f.dir.Close()
}

// Close disconnects, fsyncs and closes the WAL.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.sealed = true
	conn := f.conn
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
	if conn != nil {
		_ = conn.Close() // unparks Run; awaited below
	}
	f.runWG.Wait()
	f.state.Store(int32(StateSealed))
	return f.dir.Close()
}

// Crash abandons the follower the way a killed process would: connection
// cut, WAL buffers dropped unsynced. Built for the chaos suite.
func (f *Follower) Crash() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.sealed = true
	conn := f.conn
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
	if conn != nil {
		_ = conn.Close() // simulating a dead process; nothing to report
	}
	f.runWG.Wait()
	f.state.Store(int32(StateSealed))
	f.dir.Crash()
}
