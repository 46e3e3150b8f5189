package graphtinker_test

// Recovery tests specific to the v2 parallel snapshot format and the
// bulk-load path behind it: the on-disk checkpoint really is v2, a
// directory holding a v1-era checkpoint still reopens (and upgrades to v2
// at its next checkpoint), and a death mid-parallel-bulk-load leaves the
// directory fully recoverable — the loader never mutates disk.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	graphtinker "graphtinker"
	"graphtinker/internal/faultinject"
	"graphtinker/internal/testutil"
	"graphtinker/internal/wal"
)

// snapshotVersion reads the format version of the manifest's snapshot.
func snapshotVersion(t *testing.T, dir string) uint16 {
	t.Helper()
	m, ok, err := wal.LoadManifest(dir)
	if err != nil || !ok || m.Snapshot == "" {
		t.Fatalf("manifest with snapshot expected: ok=%v err=%v", ok, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(raw); got != 0x47545053 {
		t.Fatalf("snapshot magic %#08x, want GTPS", got)
	}
	return binary.LittleEndian.Uint16(raw[4:])
}

func TestDurableStreamCheckpointWritesV2(t *testing.T) {
	dir := t.TempDir()
	ops := genStream(9000, 0xabc)
	opts := graphtinker.DurableStreamOptions{
		Shards:     4,
		Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: 512, FlushInterval: -1},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1},
	}
	ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.PushBatch(ops[:6000]); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.PushBatch(ops[6000:]); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	if v := snapshotVersion(t, dir); v != 2 {
		t.Fatalf("checkpoint wrote snapshot format v%d, want v2", v)
	}

	// Reopen rides the v2 bulk load + batched tail replay; the result
	// must still be exactly the submitted stream.
	re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops))
}

// v1FixtureOps regenerates the 5000-op stream whose final state
// internal/core/testdata/parallel_v1.gts snapshots (the recipe of
// internal/core's buildParallelForSnapshot, which wrote the fixture).
func v1FixtureOps() []graphtinker.Update {
	r := testutil.Rand{S: 99}
	ops := make([]graphtinker.Update, 0, 5000)
	for i := 0; i < 5000; i++ {
		src, dst := r.Next()%700, r.Next()%700
		if r.Next()%6 == 0 {
			ops = append(ops, graphtinker.DeleteUpdate(src, dst))
		} else {
			ops = append(ops, graphtinker.InsertUpdate(src, dst, float32(r.Next()%100)/10))
		}
	}
	return ops
}

func TestDurableStreamUpgradesV1Snapshot(t *testing.T) {
	// Hand-build a durability directory the way a pre-v2 build would have
	// left it: a v1-format checkpoint bound by the manifest, no WAL tail.
	// The checkpoint bytes are internal/core/testdata/parallel_v1.gts, the
	// v1 dump of v1FixtureOps on 4 shards, written once by the last build
	// that still carried a v1 writer.
	dir := t.TempDir()
	ops := append(v1FixtureOps(), genStream(2000, 0xd1d)...)
	cfg := graphtinker.DefaultConfig()
	v1, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "parallel_v1.gts"))
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("snap-%016x.gts", 5000)
	if err := os.WriteFile(filepath.Join(dir, name), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	crc, size, err := wal.FileCRC(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteManifest(dir, wal.Manifest{
		Snapshot: name, LastLSN: 5000,
		SnapshotCRC: crc, SnapshotBytes: size, Shards: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersion(t, dir); v != 1 {
		t.Fatalf("setup wrote v%d, want a v1 snapshot on disk", v)
	}

	// Reopen: the v1 snapshot must load, and the stream must keep working.
	opts := graphtinker.DurableStreamOptions{
		Shards:     4,
		Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: 512, FlushInterval: -1},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1},
	}
	ds, err := graphtinker.OpenDurableStream(cfg, dir, opts)
	if err != nil {
		t.Fatalf("reopen over a v1 snapshot: %v", err)
	}
	if got := ds.Recovery(); !got.Recovered || got.SnapshotOps != 5000 {
		t.Fatalf("v1 recovery info %+v, want Recovered with 5000 snapshot ops", got)
	}
	testutil.CheckAgainstRef(t, ds.Store(), oracleOver(ops[:5000]))

	// Push the rest and checkpoint: the directory upgrades to v2 in place.
	if err := ds.PushBatch(ops[5000:]); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersion(t, dir); v != 2 {
		t.Fatalf("post-upgrade checkpoint is v%d, want v2", v)
	}
	re, err := graphtinker.OpenDurableStream(cfg, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops))
}

func TestDurableStreamKillAtBulkLoadFailpoint(t *testing.T) {
	// A death mid-parallel-bulk-load (simulated by the recovery/bulk-load
	// failpoint firing on a later shard, i.e. with other sections already
	// loaded) must fail the open cleanly and leave the directory exactly
	// as recoverable as before: the loader reads, never writes.
	t.Cleanup(faultinject.Reset)
	faultinject.Reset()
	dir := t.TempDir()
	ops := genStream(10000, 0xcafe)
	opts := graphtinker.DurableStreamOptions{
		Shards:     4,
		Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: 512, FlushInterval: -1},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SegmentBytes: 1 << 15},
	}
	ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.PushBatch(ops[:8000]); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.PushBatch(ops[8000:]); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Fire on the third section load: two shards are already in flight or
	// done when the "kill" lands.
	if err := faultinject.Set("recovery/bulk-load", "error*1@2"); err != nil {
		t.Fatal(err)
	}
	if _, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts); err == nil {
		t.Fatal("open succeeded with the bulk-load failpoint armed")
	}
	faultinject.Reset()

	re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatalf("directory unrecoverable after a failed bulk load: %v", err)
	}
	defer re.Close()
	info := re.Recovery()
	if info.SnapshotOps != 8000 || info.SnapshotOps+info.ReplayedOps != uint64(len(ops)) {
		t.Fatalf("recovery info %+v: want 8000 snapshot ops and a %d-op total", info, len(ops))
	}
	testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops))
}
