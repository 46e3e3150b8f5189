package graphtinker

// Replication facade: primary/follower handles over the durability layer.
//
// A ReplicatedStream is a DurableStream that additionally serves its
// checkpoint + live WAL tail to followers (internal/replication.Primary
// over the stream's own log). A ReplicaFollower is a read replica: it
// applies the primary's stream into its own durable directory and serves
// queries with WaitForLSN read-your-writes. Promotion turns a follower's
// directory into a primary's — reopen it with OpenReplicatedStream and
// the bumped epoch fences the old primary off.

import (
	"net"
	"time"

	"graphtinker/internal/replication"
)

// ReplicationRecorder carries replication telemetry (ship/apply counters,
// snapshot bootstraps, the follower lag gauge).
type ReplicationRecorder = replication.Recorder

// ReplicationRecorderSnapshot is its JSON form — the "replication"
// section of cmd/gtload's -metrics-out document.
type ReplicationRecorderSnapshot = replication.RecorderSnapshot

// NewReplicationRecorder builds an empty replication recorder.
func NewReplicationRecorder() *ReplicationRecorder { return replication.NewRecorder() }

// FollowerState is the follower's replication phase (syncing →
// catching-up → live).
type FollowerState = replication.State

// Follower states re-exported for callers switching on State().
const (
	FollowerIdle       = replication.StateIdle
	FollowerSyncing    = replication.StateSyncing
	FollowerCatchingUp = replication.StateCatchingUp
	FollowerLive       = replication.StateLive
	FollowerSealed     = replication.StateSealed
)

// ErrStaleEpoch reports a replication peer fenced off by the epoch
// counter after a promotion.
var ErrStaleEpoch = replication.ErrStaleEpoch

// ReplicatedStreamOptions configures OpenReplicatedStream.
type ReplicatedStreamOptions struct {
	// Stream configures the underlying durable stream.
	Stream DurableStreamOptions
	// HeartbeatInterval, when > 0, keeps idle followers' lag gauges
	// current at this period.
	HeartbeatInterval time.Duration
	// Recorder, when non-nil, receives ship-side replication telemetry.
	Recorder *ReplicationRecorder
}

// ReplicatedStream is a DurableStream that serves followers. All
// DurableStream methods apply; Serve/HandleConn attach followers.
type ReplicatedStream struct {
	*DurableStream
	primary *replication.Primary
	rec     *ReplicationRecorder
}

// OpenReplicatedStream opens a durability directory as a replication
// primary: recovery exactly as OpenDurableStream (including a promoted
// follower's directory — the manifest's epoch carries over), plus a
// serving side for followers.
func OpenReplicatedStream(cfg Config, dir string, opts ReplicatedStreamOptions) (*ReplicatedStream, error) {
	ds, err := OpenDurableStream(cfg, dir, opts.Stream)
	if err != nil {
		return nil, err
	}
	p := replication.NewPrimary(dir, ds.dir.Log(), replication.PrimaryOptions{
		Epoch:             ds.epoch,
		HeartbeatInterval: opts.HeartbeatInterval,
		Recorder:          opts.Recorder,
	})
	return &ReplicatedStream{DurableStream: ds, primary: p, rec: opts.Recorder}, nil
}

// Serve accepts follower connections on ln until Close. Non-blocking.
func (r *ReplicatedStream) Serve(ln net.Listener) error { return r.primary.Serve(ln) }

// HandleConn serves one follower on conn, blocking until the stream ends.
func (r *ReplicatedStream) HandleConn(conn net.Conn) error { return r.primary.HandleConn(conn) }

// ReplicationMetrics snapshots the ship-side telemetry (zero when no
// recorder was configured).
func (r *ReplicatedStream) ReplicationMetrics() ReplicationRecorderSnapshot {
	return r.rec.Snapshot()
}

// PrimaryMetrics is the primary's replication-aware observability
// snapshot — the JSON shape gtload's -metrics-out replication section
// is built from.
type PrimaryMetrics struct {
	// NextLSN is the primary's log position (acked ops end here).
	NextLSN uint64 `json:"next_lsn"`
	// Epoch is the primary's replication term.
	Epoch uint64 `json:"epoch"`
	// Store is the store's operation-counter snapshot.
	Store Stats `json:"store"`
	// Replication carries the ship-side counters (frames/bytes/records/
	// ops shipped, snapshot bootstraps, stale-epoch rejects).
	Replication ReplicationRecorderSnapshot `json:"replication"`
}

// MetricsSnapshot captures the primary-side replication metrics in one
// JSON-marshalable document, the ReplicatedStream analogue of
// Session.MetricsSnapshot.
func (r *ReplicatedStream) MetricsSnapshot() PrimaryMetrics {
	return PrimaryMetrics{
		NextLSN:     r.NextLSN(),
		Epoch:       r.Epoch(),
		Store:       r.Store().Stats(),
		Replication: r.rec.Snapshot(),
	}
}

// Close stops serving followers, then closes the underlying stream.
func (r *ReplicatedStream) Close() (StreamTotals, error) {
	_ = r.primary.Close() // always nil today; the stream close below is the outcome
	return r.DurableStream.Close()
}

// Crash abandons the stream the way a killed process would, follower
// connections included. Built for the chaos suite.
func (r *ReplicatedStream) Crash() {
	_ = r.primary.Close() // cutting follower streams; nothing to report
	r.DurableStream.Crash()
}

// FollowerHandleOptions configures OpenFollower.
type FollowerHandleOptions struct {
	// Shards is the store width for a fresh directory (default 4); a
	// snapshot bootstrap adopts the primary's width.
	Shards int
	// Durability tunes the follower's own WAL (SnapshotEvery is ignored —
	// followers do not checkpoint in this version).
	Durability DurabilityOptions
	// Recorder, when non-nil, receives apply-side replication telemetry.
	Recorder *ReplicationRecorder
}

// ReplicaFollower is a read replica over its own durability directory.
type ReplicaFollower struct {
	f   *replication.Follower
	rec *ReplicationRecorder
}

// OpenFollower opens (or creates) a follower durability directory and
// recovers its replica state. Attach a primary with Dial or Run.
func OpenFollower(cfg Config, dir string, opts FollowerHandleOptions) (*ReplicaFollower, error) {
	f, err := replication.OpenFollower(cfg, dir, replication.FollowerOptions{
		Shards:   opts.Shards,
		WAL:      opts.Durability.walOptions(),
		Recorder: opts.Recorder,
	})
	if err != nil {
		return nil, err
	}
	return &ReplicaFollower{f: f, rec: opts.Recorder}, nil
}

// Dial connects to a primary at addr and replays its stream until the
// connection ends. Blocking; run it on its own goroutine and reconnect on
// error for a resilient replica.
func (rf *ReplicaFollower) Dial(addr string) error { return rf.f.Dial(addr) }

// Run attaches conn as the primary stream and blocks until it ends.
func (rf *ReplicaFollower) Run(conn net.Conn) error { return rf.f.Run(conn) }

// Store exposes the replica for queries; do not mutate it. Re-fetch per
// read batch — a snapshot bootstrap swaps it.
func (rf *ReplicaFollower) Store() *Parallel { return rf.f.Store() }

// AppliedLSN is the replica's position: every op below it is applied.
func (rf *ReplicaFollower) AppliedLSN() uint64 { return rf.f.AppliedLSN() }

// WaitForLSN blocks until the replica has applied every op below lsn —
// read-your-writes for clients that saw the primary ack lsn. A
// non-positive timeout waits forever.
func (rf *ReplicaFollower) WaitForLSN(lsn uint64, timeout time.Duration) error {
	return rf.f.WaitForLSN(lsn, timeout)
}

// State reports the replication phase.
func (rf *ReplicaFollower) State() FollowerState { return rf.f.State() }

// Lag reports apply lag in ops against the primary's durable frontier.
func (rf *ReplicaFollower) Lag() uint64 { return rf.f.Lag() }

// Epoch returns the follower's replication term.
func (rf *ReplicaFollower) Epoch() uint64 { return rf.f.Epoch() }

// Recovery reports what opening the directory restored.
func (rf *ReplicaFollower) Recovery() replication.FollowerRecovery { return rf.f.Recovery() }

// ReplicationMetrics snapshots the apply-side telemetry (zero when no
// recorder was configured).
func (rf *ReplicaFollower) ReplicationMetrics() ReplicationRecorderSnapshot {
	return rf.rec.Snapshot()
}

// ReplicaMetrics is the follower's replication-aware observability
// snapshot — position, phase, lag and the apply-side counters in one
// JSON-marshalable document.
type ReplicaMetrics struct {
	// AppliedLSN is the replica's position: every op below it is applied.
	AppliedLSN uint64 `json:"applied_lsn"`
	// Epoch is the replica's replication term.
	Epoch uint64 `json:"epoch"`
	// State is the replication phase (syncing/catching-up/live/...).
	State string `json:"state"`
	// LagOps is the apply lag against the primary's durable frontier.
	LagOps uint64 `json:"lag_ops"`
	// Store is the replica store's operation-counter snapshot.
	Store Stats `json:"store"`
	// Replication carries the apply-side counters (records/ops applied,
	// snapshots installed, duplicate records dropped).
	Replication ReplicationRecorderSnapshot `json:"replication"`
}

// MetricsSnapshot captures the follower-side replication metrics in one
// document, the ReplicaFollower analogue of Session.MetricsSnapshot.
func (rf *ReplicaFollower) MetricsSnapshot() ReplicaMetrics {
	return ReplicaMetrics{
		AppliedLSN:  rf.AppliedLSN(),
		Epoch:       rf.Epoch(),
		State:       rf.State().String(),
		LagOps:      rf.Lag(),
		Store:       rf.Store().Stats(),
		Replication: rf.rec.Snapshot(),
	}
}

// Promote seals the follower, persists epoch+1 in its manifest, and
// closes it; reopen the directory with OpenReplicatedStream to serve
// writes. Returns the new epoch. The promoted state is the replica's
// applied prefix — pair with WaitForLSN where that matters.
func (rf *ReplicaFollower) Promote() (uint64, error) { return rf.f.Promote() }

// Close disconnects and releases the replica.
func (rf *ReplicaFollower) Close() error { return rf.f.Close() }

// Crash abandons the replica the way a killed process would. Built for
// the chaos suite.
func (rf *ReplicaFollower) Crash() { rf.f.Crash() }
