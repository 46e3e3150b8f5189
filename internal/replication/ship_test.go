package replication

// The ship path end to end: a records frame carries the record exactly as
// the primary's log wrote it, neither side allocates per record once warm,
// and the follower's continuity rule (duplicate, straddle, gap) is the one
// place a record below the follower's position is cut.

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"testing"

	"graphtinker/internal/core"
	"graphtinker/internal/testutil"
	"graphtinker/internal/wal"
)

// TestRecordsFrameIsRecordAsWritten reads a records frame off the wire
// and compares it with the primary's segment file: the durable frontier,
// then the record payload byte for byte as Log.Append wrote it.
func TestRecordsFrameIsRecordAsWritten(t *testing.T) {
	h := newPrimaryHarness(t, 0, nil)
	ops := genStream(50, 11)
	h.append(ops)

	pc, cc := net.Pipe()
	go func() { _ = h.p.HandleConn(pc) }()
	fc := newFrameConn(cc, nil)
	defer func() { _ = fc.Close() }()
	if err := fc.send(frameHello, encodeHello(helloMsg{version: protocolVersion})); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := fc.recv(); err != nil || ft != frameStart {
		t.Fatalf("first frame type %d, err %v; want start", ft, err)
	}
	ft, frame, err := fc.recv()
	if err != nil || ft != frameRecords {
		t.Fatalf("second frame type %d, err %v; want records", ft, err)
	}

	seg, err := os.ReadFile(filepath.Join(h.dir, "wal", "0000000000000000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	const segHeader, recHeader = 16, 8
	plen := int(binary.LittleEndian.Uint32(seg[segHeader:]))
	want := binary.LittleEndian.AppendUint64(nil, uint64(len(ops)))
	want = append(want, seg[segHeader+recHeader:segHeader+recHeader+plen]...)
	if !bytes.Equal(frame, want) {
		t.Fatalf("records frame (%d bytes) is not the durable frontier and the record as written (%d bytes)", len(frame), len(want))
	}
}

// discardConn is a net.Conn whose writes go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestShipPathAllocFree: once warm, sending a records frame on the primary
// and decoding one into the follower's reused op buffer each allocate
// nothing per record.
func TestShipPathAllocFree(t *testing.T) {
	log, err := wal.Open(t.TempDir(), wal.Options{SyncInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Crash()
	ops := genStream(64, 12)
	if _, err := log.Append(ops); err != nil {
		t.Fatal(err)
	}
	tl, err := log.NewTailer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tl.Close() }()
	_, _, record, err := tl.Next(nil)
	if err != nil {
		t.Fatal(err)
	}

	fc := newFrameConn(discardConn{}, NewRecorder())
	send := func() {
		if err := fc.sendFrontier(frameRecords, 64, record); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("sending a records frame allocates %.1f times, want 0", allocs)
	}

	frame := append(binary.LittleEndian.AppendUint64(nil, 64), record...)
	var buf []core.EdgeOp
	decode := func() {
		var durable, first uint64
		durable, first, buf, err = decodeRecordsFrame(frame, buf)
		if err != nil || durable != 64 || first != 0 || len(buf) != len(ops) {
			t.Fatalf("decode: durable %d, first %d, %d ops, %v", durable, first, len(buf), err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("decoding a records frame allocates %.1f times, want 0", allocs)
	}
	for i := range ops {
		if buf[i] != ops[i] {
			t.Fatalf("op %d decodes as %+v, want %+v", i, buf[i], ops[i])
		}
	}
}

// TestFollowerContinuityRule drives Follower.applyRecord's three cases. The
// primary's one record spans LSN 0–100 and the follower already holds
// 0–37, so the tailer ships the whole record and the follower applies and
// logs ops 37–99 only.
func TestFollowerContinuityRule(t *testing.T) {
	prec := NewRecorder()
	h := newPrimaryHarness(t, 0, prec)
	ops := genStream(100, 13)
	h.append(ops)

	fdir := t.TempDir()
	frec := NewRecorder()
	f := openTestFollower(t, fdir, frec)
	defer func() { _ = f.Close() }()
	if err := f.applyRecord(0, ops[:37]); err != nil {
		t.Fatal(err)
	}

	// Straddle: the stream starts at 37 inside the primary's record.
	done := h.connect(f)
	waitApplied(t, f, 100)
	_ = h.p.Close()
	<-done
	if s := prec.Snapshot(); s.RecordsShipped != 1 || s.OpsShipped != 100 {
		t.Fatalf("primary shipped %d ops in %d records, want the whole 100-op record", s.OpsShipped, s.RecordsShipped)
	}
	if s := frec.Snapshot(); s.OpsApplied != 100 || s.RecordsApplied != 2 || s.DuplicateRecords != 0 {
		t.Fatalf("follower applied %d ops in %d records (%d duplicates), want 100 in 2 (0)",
			s.OpsApplied, s.RecordsApplied, s.DuplicateRecords)
	}
	testutil.CheckAgainstRef(t, f.Store(), oracleOver(ops))

	// Duplicate: a record wholly below the follower's position is dropped.
	if err := f.applyRecord(0, ops[:50]); err != nil {
		t.Fatalf("duplicate record: %v", err)
	}
	if s := frec.Snapshot(); s.DuplicateRecords != 1 || s.OpsApplied != 100 {
		t.Fatalf("after a duplicate: %d duplicates, %d ops applied; want 1, 100", s.DuplicateRecords, s.OpsApplied)
	}

	// Gap: a record past the follower's position is refused untouched.
	if err := f.applyRecord(101, genStream(10, 14)); err == nil {
		t.Fatal("a record past the follower's position was accepted")
	}
	if next := f.dir.Log().NextLSN(); next != 100 || f.AppliedLSN() != 100 {
		t.Fatalf("after a gap: log at %d, applied %d; want 100, 100", next, f.AppliedLSN())
	}
	if s := frec.Snapshot(); s.OpsApplied != 100 || s.RecordsApplied != 2 {
		t.Fatalf("after a gap: %d ops applied in %d records, want 100 in 2", s.OpsApplied, s.RecordsApplied)
	}
	testutil.CheckAgainstRef(t, f.Store(), oracleOver(ops))

	// Every op is in the follower's log exactly once, in order.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var logged []core.EdgeOp
	if _, err := wal.Replay(filepath.Join(fdir, "wal"), 0, nil, func(lsn uint64, rops []core.EdgeOp) error {
		if lsn != uint64(len(logged)) {
			t.Fatalf("follower log record at LSN %d, want %d", lsn, len(logged))
		}
		logged = append(logged, rops...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(ops) {
		t.Fatalf("follower logged %d ops, want %d", len(logged), len(ops))
	}
	for i := range ops {
		if logged[i] != ops[i] {
			t.Fatalf("logged op %d = %+v, want %+v", i, logged[i], ops[i])
		}
	}
}
