package replication

// Package-level replication tests over in-process pipes: live tailing,
// snapshot bootstrap, reconnect resume, epoch fencing, WaitForLSN
// semantics, and transport framing. The facade-level chaos suite
// (replication_chaos_test.go at the module root) covers kill-and-recover;
// these pin the protocol mechanics.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/testutil"
	"graphtinker/internal/wal"
)

// genStream builds a deterministic mixed insert/delete op stream.
func genStream(n int, seed uint64) []core.EdgeOp {
	r := testutil.Rand{S: seed}
	ops := make([]core.EdgeOp, 0, n)
	for i := 0; i < n; i++ {
		src, dst := r.Next()%400, r.Next()%400
		if r.Intn(5) == 0 {
			ops = append(ops, core.DeleteOp(src, dst))
		} else {
			ops = append(ops, core.InsertOp(src, dst, r.Float32()))
		}
	}
	return ops
}

// oracleOver replays ops on the reference oracle.
func oracleOver(ops []core.EdgeOp) *testutil.RefGraph {
	ref := testutil.NewRefGraph()
	for _, op := range ops {
		if op.Del {
			ref.Delete(op.Src, op.Dst)
		} else {
			ref.Insert(op.Src, op.Dst, op.Weight)
		}
	}
	return ref
}

// primaryHarness is a minimal primary-side durability directory: a live
// WAL plus checkpoint machinery, without the full ingest pipeline.
type primaryHarness struct {
	t     *testing.T
	dir   string
	log   *wal.Log
	store *core.Parallel // mirror of everything appended, for checkpoints
	p     *Primary
}

func newPrimaryHarness(t *testing.T, epoch uint64, rec *Recorder) *primaryHarness {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SyncInterval: 0, SegmentBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewParallel(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	h := &primaryHarness{t: t, dir: dir, log: log, store: store}
	h.p = NewPrimary(dir, log, PrimaryOptions{Epoch: epoch, Recorder: rec})
	t.Cleanup(func() {
		_ = h.p.Close()
		h.log.Crash()
	})
	return h
}

func (h *primaryHarness) append(ops []core.EdgeOp) {
	h.t.Helper()
	if _, err := h.log.Append(ops); err != nil {
		h.t.Fatal(err)
	}
	for _, op := range ops {
		s := h.store.ShardOf(op.Src)
		h.store.ApplyShard(s, []core.EdgeOp{op})
	}
}

// appendChunks appends in small records so segments rotate — a
// prerequisite for prune/bootstrap scenarios.
func (h *primaryHarness) appendChunks(ops []core.EdgeOp, chunk int) {
	h.t.Helper()
	for i := 0; i < len(ops); i += chunk {
		end := i + chunk
		if end > len(ops) {
			end = len(ops)
		}
		h.append(ops[i:end])
	}
}

// checkpoint installs a snapshot+manifest at the current LSN and prunes,
// the way DurableStream.Checkpoint does.
func (h *primaryHarness) checkpoint(epoch uint64) {
	h.t.Helper()
	lsn := h.log.NextLSN()
	name := "snap-test.gts"
	path := filepath.Join(h.dir, name)
	f, err := os.Create(path)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.store.WriteSnapshot(f); err != nil {
		h.t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		h.t.Fatal(err)
	}
	crc, size, err := wal.FileCRC(path)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := wal.WriteManifest(h.dir, wal.Manifest{
		Snapshot: name, LastLSN: lsn, SnapshotCRC: crc, SnapshotBytes: size,
		Shards: h.store.NumShards(), Epoch: epoch,
	}); err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.log.Prune(lsn); err != nil {
		h.t.Fatal(err)
	}
}

// connect wires a follower to the harness primary over an in-process
// pipe, running both ends; the returned chan carries Run's result.
func (h *primaryHarness) connect(f *Follower) <-chan error {
	pc, fc := net.Pipe()
	go func() { _ = h.p.HandleConn(pc) }()
	done := make(chan error, 1)
	go func() { done <- f.Run(fc) }()
	return done
}

func openTestFollower(t *testing.T, dir string, rec *Recorder) *Follower {
	t.Helper()
	f, err := OpenFollower(core.DefaultConfig(), dir, FollowerOptions{
		Shards: 4, WAL: wal.Options{SyncInterval: -1, SegmentBytes: 1 << 14}, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func waitApplied(t *testing.T, f *Follower, lsn uint64) {
	t.Helper()
	if err := f.WaitForLSN(lsn, 10*time.Second); err != nil {
		t.Fatalf("WaitForLSN(%d): %v (applied %d)", lsn, err, f.AppliedLSN())
	}
}

func TestLiveTailReplication(t *testing.T) {
	rec := NewRecorder()
	h := newPrimaryHarness(t, 0, rec)
	ops := genStream(3000, 1)
	h.append(ops[:1000])

	fdir := t.TempDir()
	frec := NewRecorder()
	f := openTestFollower(t, fdir, frec)
	defer func() { _ = f.Close() }()
	done := h.connect(f)

	waitApplied(t, f, 1000)
	// Live appends while the stream is up.
	for i := 1000; i < len(ops); i += 250 {
		h.append(ops[i : i+250])
	}
	waitApplied(t, f, uint64(len(ops)))

	testutil.CheckAgainstRef(t, f.Store(), oracleOver(ops))
	if f.State() != StateLive {
		t.Fatalf("state = %v, want live", f.State())
	}
	if f.Lag() != 0 {
		t.Fatalf("lag = %d, want 0", f.Lag())
	}
	fs := frec.Snapshot()
	if fs.OpsApplied != uint64(len(ops)) || fs.RecordsApplied == 0 {
		t.Fatalf("follower counters: applied %d ops in %d records", fs.OpsApplied, fs.RecordsApplied)
	}
	// The ship counter moves after the send, so the follower can observe
	// the ops slightly before it; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for rec.Snapshot().OpsShipped != uint64(len(ops)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ps := rec.Snapshot()
	if ps.OpsShipped != uint64(len(ops)) || ps.FramesSent == 0 {
		t.Fatalf("primary counters: shipped %d ops, want %d", ps.OpsShipped, len(ops))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
}

func TestSnapshotBootstrap(t *testing.T) {
	rec := NewRecorder()
	h := newPrimaryHarness(t, 0, rec)
	ops := genStream(4000, 2)
	h.appendChunks(ops[:2500], 100)
	h.checkpoint(0) // prunes the log: a fresh follower must bootstrap
	if _, err := h.log.NewTailer(0); !errors.Is(err, wal.ErrTailPruned) {
		t.Fatalf("precondition: LSN 0 still tailable after checkpoint (err=%v)", err)
	}
	h.append(ops[2500:3000])

	fdir := t.TempDir()
	frec := NewRecorder()
	f := openTestFollower(t, fdir, frec)
	defer func() { _ = f.Close() }()
	h.connect(f)
	waitApplied(t, f, 3000)
	h.append(ops[3000:])
	waitApplied(t, f, uint64(len(ops)))

	testutil.CheckAgainstRef(t, f.Store(), oracleOver(ops))
	if got := frec.Snapshot().SnapshotsInstalled; got != 1 {
		t.Fatalf("SnapshotsInstalled = %d, want 1", got)
	}
	if got := rec.Snapshot().SnapshotsSent; got != 1 {
		t.Fatalf("SnapshotsSent = %d, want 1", got)
	}
	// Applied ops past the snapshot came through the WAL path only.
	if got := frec.Snapshot().OpsApplied; got != uint64(len(ops)-2500) {
		t.Fatalf("OpsApplied = %d, want %d", got, len(ops)-2500)
	}
	// The follower's directory must recover standalone to the same state.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := openTestFollower(t, fdir, nil)
	defer func() { _ = f2.Close() }()
	if f2.AppliedLSN() != uint64(len(ops)) {
		t.Fatalf("reopened follower at LSN %d, want %d", f2.AppliedLSN(), len(ops))
	}
	rinfo := f2.Recovery()
	if rinfo.SnapshotOps+rinfo.ReplayedOps != uint64(len(ops)) {
		t.Fatalf("LSN accounting: snapshot %d + replayed %d != %d (duplicate or lost applies)",
			rinfo.SnapshotOps, rinfo.ReplayedOps, len(ops))
	}
	testutil.CheckAgainstRef(t, f2.Store(), oracleOver(ops))
}

func TestReconnectResumes(t *testing.T) {
	h := newPrimaryHarness(t, 0, nil)
	ops := genStream(2000, 3)
	h.append(ops[:800])

	fdir := t.TempDir()
	f := openTestFollower(t, fdir, nil)
	defer func() { _ = f.Close() }()
	done := h.connect(f)
	waitApplied(t, f, 800)

	// Cut the connection (a flaky network, not a crash), append more,
	// reconnect: the stream resumes from the follower's position.
	f.mu.Lock()
	conn := f.conn
	f.mu.Unlock()
	_ = conn.Close()
	<-done
	h.append(ops[800:])
	h.connect(f)
	waitApplied(t, f, uint64(len(ops)))
	testutil.CheckAgainstRef(t, f.Store(), oracleOver(ops))
}

func TestEpochFencing(t *testing.T) {
	// Follower at a newer epoch: the primary must refuse it at hello.
	h := newPrimaryHarness(t, 0, nil)
	h.append(genStream(100, 4))
	fdir := t.TempDir()
	if err := wal.WriteManifest(fdir, wal.Manifest{Shards: 4, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	f := openTestFollower(t, fdir, nil)
	defer func() { _ = f.Close() }()
	if f.Epoch() != 3 {
		t.Fatalf("follower epoch = %d, want 3", f.Epoch())
	}
	err := <-h.connect(f)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("Run against deposed primary = %v, want ErrStaleEpoch", err)
	}

	// Primary at a newer epoch: the follower adopts and persists it.
	h2 := newPrimaryHarness(t, 5, nil)
	h2.append(genStream(200, 5))
	fdir2 := t.TempDir()
	f2 := openTestFollower(t, fdir2, nil)
	defer func() { _ = f2.Close() }()
	h2.connect(f2)
	waitApplied(t, f2, 200)
	if f2.Epoch() != 5 {
		t.Fatalf("follower epoch = %d, want 5 (adopted)", f2.Epoch())
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	m, ok, err := wal.LoadManifest(fdir2)
	if err != nil || !ok {
		t.Fatalf("manifest after epoch adoption: ok=%v err=%v", ok, err)
	}
	if m.Epoch != 5 {
		t.Fatalf("persisted epoch = %d, want 5", m.Epoch)
	}
}

func TestPromoteBumpsEpochAndFences(t *testing.T) {
	h := newPrimaryHarness(t, 0, nil)
	ops := genStream(1500, 6)
	h.append(ops)

	fdir := t.TempDir()
	f := openTestFollower(t, fdir, nil)
	done := h.connect(f)
	waitApplied(t, f, uint64(len(ops)))

	epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("promoted epoch = %d, want 1", epoch)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run after Promote: %v", err)
	}
	// The promoted directory recovers with the bumped epoch and the exact
	// applied prefix.
	f2 := openTestFollower(t, fdir, nil)
	defer func() { _ = f2.Close() }()
	if f2.Epoch() != 1 {
		t.Fatalf("reopened epoch = %d, want 1", f2.Epoch())
	}
	if f2.AppliedLSN() != uint64(len(ops)) {
		t.Fatalf("promoted store at LSN %d, want %d", f2.AppliedLSN(), len(ops))
	}
	testutil.CheckAgainstRef(t, f2.Store(), oracleOver(ops))
	// The deposed primary (epoch 0) must now be refused.
	err = <-h.connect(f2)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed primary accepted: %v", err)
	}
}

func TestWaitForLSNSemantics(t *testing.T) {
	h := newPrimaryHarness(t, 0, nil)
	h.append(genStream(100, 7))
	fdir := t.TempDir()
	f := openTestFollower(t, fdir, nil)
	defer func() { _ = f.Close() }()
	h.connect(f)
	waitApplied(t, f, 100)
	// A position past the stream times out rather than returning early.
	if err := f.WaitForLSN(500, 80*time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("WaitForLSN past the stream = %v, want ErrWaitTimeout", err)
	}
	// It returns once the position is applied, never before.
	errCh := make(chan error, 1)
	go func() { errCh <- f.WaitForLSN(150, 10*time.Second) }()
	select {
	case err := <-errCh:
		t.Fatalf("WaitForLSN(150) returned before LSN 150 applied: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	h.append(genStream(50, 8))
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() < 150 {
		t.Fatalf("WaitForLSN returned early: applied %d < 150", f.AppliedLSN())
	}
	// A closed follower fails waits instead of hanging.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitForLSN(1000, time.Second); !errors.Is(err, ErrFollowerClosed) {
		t.Fatalf("WaitForLSN after Close = %v, want ErrFollowerClosed", err)
	}
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	a, b := net.Pipe()
	fa, fb := newFrameConn(a, nil), newFrameConn(b, nil)
	defer func() { _ = fa.Close() }()
	defer func() { _ = fb.Close() }()
	payload := []byte("the quick brown fox")
	go func() { _ = fa.send(frameRecords, payload) }()
	ft, got, err := fb.recv()
	if err != nil || ft != frameRecords || string(got) != string(payload) {
		t.Fatalf("round trip: type=%d err=%v", ft, err)
	}
	// Corrupt a payload byte in flight: recv must fail the checksum.
	go func() {
		raw := make([]byte, frameHeaderSize+len(payload))
		copy(raw[frameHeaderSize:], payload)
		raw[0] = byte(len(payload))
		raw[4] = frameRecords
		// CRC computed over the true payload, then flip a payload bit.
		c := crc32.Checksum(payload, castagnoli)
		raw[5], raw[6], raw[7], raw[8] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		raw[frameHeaderSize] ^= 0x40
		_, _ = a.Write(raw)
	}()
	if _, _, err := fb.recv(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt frame = %v, want ErrBadFrame", err)
	}
}

// TestFrameLengthClaimAllocatesWhatArrives: a header claiming the largest
// payload, then EOF, costs recv about what arrived, not what was claimed.
func TestFrameLengthClaimAllocatesWhatArrives(t *testing.T) {
	hdr := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(hdr, maxFramePayload)
	hdr[4] = frameRecords
	fc := newFrameConn(&byteConn{r: bytes.NewReader(hdr)}, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := fc.recv()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("recv = %v, want a truncated-frame error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("recv allocated %d bytes for a frame that sent none", n)
	}
}

// TestFrameMultiMiBRoundTrip: a payload far past the receive buffer's first
// size still arrives whole, and the grown buffer serves a later frame.
func TestFrameMultiMiBRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	fa, fb := newFrameConn(a, nil), newFrameConn(b, nil)
	defer func() { _ = fa.Close() }()
	defer func() { _ = fb.Close() }()
	big := make([]byte, 5<<20+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := []byte("after")
	go func() {
		if fa.send(frameSnapChunk, big) == nil {
			_ = fa.send(frameRecords, small)
		}
	}()
	for _, want := range [][]byte{big, small} {
		if _, got, err := fb.recv(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("recv of %d bytes: got %d bytes, err %v", len(want), len(got), err)
		}
	}
}
