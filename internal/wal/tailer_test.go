package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphtinker/internal/core"
)

// collectTailer drains n ops from a tailer, decoding each record, failing
// the test if Next errors or stalls past the deadline.
func collectTailer(t *testing.T, tl *Tailer, n int, stop <-chan struct{}) []core.EdgeOp {
	t.Helper()
	type result struct {
		ops []core.EdgeOp
		err error
	}
	done := make(chan result, 1)
	go func() {
		var got, ops []core.EdgeOp
		for len(got) < n {
			_, _, payload, err := tl.Next(stop)
			if err == nil {
				_, ops, err = DecodeOps(payload, ops)
			}
			if err != nil {
				done <- result{got, err}
				return
			}
			got = append(got, ops...)
		}
		done <- result{got, nil}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("tailer: %v after %d ops", r.err, len(r.ops))
		}
		return r.ops
	case <-time.After(10 * time.Second):
		t.Fatal("tailer stalled")
		return nil
	}
}

func opsEqual(a, b []core.EdgeOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTailerStreamsAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations mid-stream.
	l, err := Open(dir, Options{SegmentBytes: 2048, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Crash()
	ops := genOps(1500, 21)
	for i := 0; i < len(ops); i += 75 {
		if _, err := l.Append(ops[i : i+75]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, _ := l.Segments(); n < 3 {
		t.Fatalf("want >=3 segments for a rotation test, got %d", n)
	}
	tl, err := l.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tl.Close() }()
	got := collectTailer(t, tl, len(ops), nil)
	if !opsEqual(got, ops) {
		t.Fatal("tailed ops differ from appended ops")
	}
	if tl.Position() != uint64(len(ops)) {
		t.Fatalf("Position() = %d, want %d", tl.Position(), len(ops))
	}
}

func TestTailerStartMidRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Crash()
	ops := genOps(100, 22)
	// One 100-op record; start the tailer inside it.
	if _, err := l.Append(ops); err != nil {
		t.Fatal(err)
	}
	const from = 37
	tl, err := l.NewTailer(from)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tl.Close() }()
	// The straddling record comes back whole, as the log wrote it: the
	// reader drops the prefix it holds.
	lsn, count, payload, err := tl.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 || count != len(ops) {
		t.Fatalf("first delivery at LSN %d with %d ops, want LSN 0 with %d", lsn, count, len(ops))
	}
	if _, rec, err := DecodeOps(payload, nil); err != nil || !opsEqual(rec, ops) {
		t.Fatalf("straddling record not delivered whole (decode error %v)", err)
	}
	if tl.Position() != uint64(len(ops)) {
		t.Fatalf("Position() = %d, want %d", tl.Position(), len(ops))
	}
}

func TestTailerBlocksUntilDurable(t *testing.T) {
	dir := t.TempDir()
	// Barrier-only sync: appends are written but not durable, so the
	// tailer must not see them until Sync.
	l, err := Open(dir, Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Crash()
	ops := genOps(50, 23)
	if _, err := l.Append(ops); err != nil {
		t.Fatal(err)
	}
	tl, err := l.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tl.Close() }()

	delivered := make(chan []core.EdgeOp, 1)
	go func() {
		_, _, payload, err := tl.Next(nil)
		if err != nil {
			delivered <- nil
			return
		}
		_, rec, _ := DecodeOps(payload, nil)
		delivered <- rec
	}()
	select {
	case <-delivered:
		t.Fatal("tailer delivered ops that were never fsynced")
	case <-time.After(100 * time.Millisecond):
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case rec := <-delivered:
		if !opsEqual(rec, ops) {
			t.Fatal("delivered ops differ after sync")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tailer did not wake after Sync")
	}
}

func TestTailerStopAndLogClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(genOps(10, 24)); err != nil {
		t.Fatal(err)
	}
	tl, err := l.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tl.Next(nil); err != nil {
		t.Fatal(err)
	}
	// At the tail now: a closed stop channel unblocks with ErrTailerStopped.
	stop := make(chan struct{})
	close(stop)
	if _, _, _, err := tl.Next(stop); !errors.Is(err, ErrTailerStopped) {
		t.Fatalf("Next with closed stop = %v, want ErrTailerStopped", err)
	}
	// Closing the log unblocks a parked tailer with ErrClosed.
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := tl.Next(nil)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Next after log close = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tailer did not wake on log close")
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTailerRetentionGuard(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 2048, SyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Crash()
	ops := genOps(1200, 25)
	for i := 0; i < len(ops); i += 60 {
		if _, err := l.Append(ops[i : i+60]); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := l.Segments()
	if before < 3 {
		t.Fatalf("want >=3 segments, got %d", before)
	}
	tl, err := l.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	// A reader parked at LSN 0 pins everything: Prune must be a no-op.
	removed, err := l.Prune(l.NextLSN())
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("Prune removed %d segments pinned by a tailer", removed)
	}
	// Drain half the stream; the reader's mark advances, releasing the
	// segments wholly below it.
	_ = collectTailer(t, tl, 600, nil)
	removedMid, err := l.Prune(l.NextLSN())
	if err != nil {
		t.Fatal(err)
	}
	// The tailer can still read the rest even after the partial prune.
	rest := collectTailer(t, tl, len(ops)-600, nil)
	if !opsEqual(rest, ops[600:]) {
		t.Fatal("tailed tail differs after prune")
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	removedAfter, err := l.Prune(l.NextLSN())
	if err != nil {
		t.Fatal(err)
	}
	after, _ := l.Segments()
	if removedMid+removedAfter == 0 {
		t.Fatal("Prune removed nothing even after the tailer advanced and closed")
	}
	if after != 1 {
		t.Fatalf("want 1 segment after full prune, got %d", after)
	}
}

func TestTailerPrunedStart(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 2048, SyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Crash()
	ops := genOps(1200, 26)
	for i := 0; i < len(ops); i += 60 {
		if _, err := l.Append(ops[i : i+60]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Prune(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.NewTailer(0); !errors.Is(err, ErrTailPruned) {
		t.Fatalf("NewTailer(0) after prune = %v, want ErrTailPruned", err)
	}
	if _, err := l.NewTailer(l.NextLSN() + 1); err == nil {
		t.Fatal("NewTailer beyond the log end must fail")
	}
	// The log's current tail is still reachable.
	tl, err := l.NewTailer(l.NextLSN())
	if err != nil {
		t.Fatal(err)
	}
	_ = tl.Close()
}

func TestTailerInitialLSN(t *testing.T) {
	dir := t.TempDir()
	// A follower bootstrapped from a snapshot at LSN 5000 opens an empty
	// log positioned there; tailing and replay both start at that floor.
	l, err := Open(dir, Options{SyncInterval: 0, InitialLSN: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if l.NextLSN() != 5000 {
		t.Fatalf("NextLSN = %d, want 5000", l.NextLSN())
	}
	ops := genOps(40, 27)
	if _, err := l.Append(ops); err != nil {
		t.Fatal(err)
	}
	tl, err := l.NewTailer(5000)
	if err != nil {
		t.Fatal(err)
	}
	got := collectTailer(t, tl, len(ops), nil)
	if !opsEqual(got, ops) {
		t.Fatal("tailed ops differ")
	}
	_ = tl.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen ignores InitialLSN once segments exist.
	l2, err := Open(dir, Options{SyncInterval: 0, InitialLSN: 9999})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Crash()
	if l2.NextLSN() != 5040 {
		t.Fatalf("reopened NextLSN = %d, want 5040", l2.NextLSN())
	}
	got2, next := replayAll(t, dir, 5000)
	if next != 5040 || !opsEqual(got2, ops) {
		t.Fatalf("replay from InitialLSN floor: next=%d", next)
	}
}

// TestReplayResumeMidSegment pins Replay's mid-segment resume behaviour —
// the path the Tailer's bootstrap depends on. Records are 50 ops each, so
// resuming at LSN 125 must slice record [100,150) and skip two records,
// with exact record/op counts on the recorder.
func TestReplayResumeMidSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096, SyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(600, 28)
	for i := 0; i < len(ops); i += 50 {
		if _, err := l.Append(ops[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	segBoundaries, _ := l.Segments()
	if segBoundaries < 2 {
		t.Fatalf("want >=2 segments, got %d", segBoundaries)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		from        uint64
		wantRecords uint64 // records delivered to fn (straddler included)
	}{
		{from: 125, wantRecords: 10}, // mid-record, mid-segment: [100,150) sliced
		{from: 150, wantRecords: 9},  // record boundary mid-segment
		{from: 599, wantRecords: 1},  // last op only
		{from: 600, wantRecords: 0},  // at the end: nothing to replay
	}
	for _, tc := range cases {
		rec := NewRecorder()
		var got []core.EdgeOp
		next, err := Replay(dir, tc.from, rec, func(lsn uint64, rops []core.EdgeOp) error {
			if lsn != tc.from+uint64(len(got)) {
				t.Fatalf("from=%d: record at LSN %d, want %d", tc.from, lsn, tc.from+uint64(len(got)))
			}
			got = append(got, rops...)
			return nil
		})
		if err != nil {
			t.Fatalf("from=%d: %v", tc.from, err)
		}
		if next != 600 {
			t.Fatalf("from=%d: next=%d, want 600", tc.from, next)
		}
		if !opsEqual(got, ops[tc.from:]) {
			t.Fatalf("from=%d: replayed ops differ", tc.from)
		}
		snap := rec.Snapshot()
		if snap.ReplayedRecords != tc.wantRecords {
			t.Fatalf("from=%d: ReplayedRecords=%d, want %d", tc.from, snap.ReplayedRecords, tc.wantRecords)
		}
		if snap.ReplayedOps != uint64(600-tc.from) {
			t.Fatalf("from=%d: ReplayedOps=%d, want %d", tc.from, snap.ReplayedOps, 600-tc.from)
		}
	}
}

func TestEncodeDecodeOpsRoundTrip(t *testing.T) {
	ops := genOps(97, 29)
	payload := make([]byte, recordMetaSize+opSize*len(ops))
	encodePayloadInto(payload, 4242, ops)
	buf := make([]core.EdgeOp, 0, len(ops))
	first, got, err := DecodeOps(payload, buf)
	if err != nil {
		t.Fatal(err)
	}
	if first != 4242 || !opsEqual(got, ops) {
		t.Fatalf("round trip: first=%d", first)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("DecodeOps did not decode into the buffer it was given")
	}
	if _, _, err := DecodeOps(payload[:len(payload)-1], buf); err == nil {
		t.Fatal("truncated payload must fail to decode")
	}
}

// TestTailerNextAllocFree pins the ship path's read side: once warm, Next
// over a synced log of equal-size records allocates nothing per record.
func TestTailerNextAllocFree(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Crash()
	const records, perRecord = 300, 64
	ops := genOps(records*perRecord, 30)
	for i := 0; i < len(ops); i += perRecord {
		if _, err := l.Append(ops[i : i+perRecord]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	tl, err := l.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tl.Close() }()
	var want uint64
	next := func() {
		lsn, count, _, err := tl.Next(nil)
		if err != nil || lsn != want || count != perRecord {
			t.Fatalf("Next = LSN %d, %d ops, %v; want LSN %d, %d ops", lsn, count, err, want, perRecord)
		}
		want += perRecord
	}
	next() // opens the segment and sizes the payload buffer
	if allocs := testing.AllocsPerRun(records-2, next); allocs != 0 {
		t.Fatalf("Tailer.Next allocates %.1f times per record, want 0", allocs)
	}
}

// TestTailerCorruptBelowFrontier: a record below the durable frontier that
// fails its checksum is corruption for a tailer, never a tail to skip.
func TestTailerCorruptBelowFrontier(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Crash()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(genOps(20, uint64(31+i))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	recLen := recordHeaderSize + recordMetaSize + 20*opSize
	data[headerSize+recLen+recordHeaderSize+recordMetaSize+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := l.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tl.Close() }()
	if _, _, _, err := tl.Next(nil); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, _, _, err := tl.Next(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Next over a corrupt record = %v, want ErrCorrupt", err)
	}
}
