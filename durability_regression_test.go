package graphtinker_test

// Regression tests for durability-layer edge cases: stuck snapshot GC
// must be visible to operators, Crash racing an in-flight Checkpoint must
// leave the directory recoverable with no leaked handles or temp files,
// and a session directory from before the one snapshot format must
// recover and upgrade.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	graphtinker "graphtinker"
	"graphtinker/internal/faultinject"
	"graphtinker/internal/testutil"
	"graphtinker/internal/wal"
)

// TestSnapshotGCFailureCounted pins the removeStaleSnapshots fix: a
// snapshot entry that cannot be removed (here: a directory matching the
// snap-*.gts glob with a child in it) must not fail the checkpoint, but
// must be counted on the WAL recorder so stuck GC is observable.
func TestSnapshotGCFailureCounted(t *testing.T) {
	dir := t.TempDir()
	rec := graphtinker.NewWALRecorder()
	opts := graphtinker.DurableStreamOptions{
		Shards:     2,
		Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: 256, FlushInterval: -1},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1, Recorder: rec},
	}
	ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Crash()

	// An undeletable stale "snapshot": os.Remove fails on a non-empty
	// directory, which is exactly how a permissions/filesystem wedge
	// presents to GC.
	stuck := filepath.Join(dir, "snap-00000000deadbeef.gts")
	if err := os.MkdirAll(filepath.Join(stuck, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ds.PushBatch(genStream(500, 61)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatalf("checkpoint must survive a stuck GC entry: %v", err)
	}
	if got := rec.Snapshot().SnapshotGCFailures; got != 1 {
		t.Fatalf("SnapshotGCFailures = %d, want 1", got)
	}
	// A second checkpoint counts it again — the wedge is still there.
	if err := ds.PushBatch(genStream(100, 62)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().SnapshotGCFailures; got != 2 {
		t.Fatalf("SnapshotGCFailures after second checkpoint = %d, want 2", got)
	}
	// Deletable stale snapshots still disappear alongside the stuck one.
	matches, _ := filepath.Glob(filepath.Join(dir, "snap-*.gts"))
	var files int
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && !fi.IsDir() {
			files++
		}
	}
	if files != 1 {
		t.Fatalf("want exactly the live snapshot on disk, got %d files", files)
	}
}

// TestCrashRacesCheckpoint pins the Crash-vs-Checkpoint contract: however
// the race lands, both calls return, nothing panics or deadlocks, no
// checkpoint temp files leak, double-Crash is idempotent, and the
// directory reopens to an exact prefix of the submitted stream.
func TestCrashRacesCheckpoint(t *testing.T) {
	ops := genStream(6000, 63)
	for round := 0; round < 6; round++ {
		dir := t.TempDir()
		opts := graphtinker.DurableStreamOptions{
			Shards:     2,
			Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: 256, FlushInterval: -1},
			Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SegmentBytes: 1 << 15},
		}
		ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.PushBatch(ops); err != nil {
			t.Fatal(err)
		}
		// Widen the race window: the checkpoint's barrier fsync stalls
		// inside the critical section while Crash contends for it.
		if err := faultinject.Set("wal/fsync", "delay(30ms)*1"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var ckptErr error
		go func() {
			defer wg.Done()
			ckptErr = ds.Checkpoint()
		}()
		go func() {
			defer wg.Done()
			ds.Crash()
		}()
		wg.Wait()
		faultinject.Reset()
		if ckptErr != nil && !errors.Is(ckptErr, graphtinker.ErrStreamClosed) {
			t.Fatalf("round %d: Checkpoint = %v, want nil or ErrStreamClosed", round, ckptErr)
		}
		ds.Crash() // idempotent double-Crash
		if _, err := ds.Close(); !errors.Is(err, graphtinker.ErrStreamClosed) {
			t.Fatalf("round %d: Close after Crash = %v, want ErrStreamClosed", round, err)
		}

		// No checkpoint temp files may survive the race.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".snap-") || strings.HasPrefix(e.Name(), ".manifest-") {
				t.Fatalf("round %d: leaked temp file %s", round, e.Name())
			}
		}

		// The directory must recover to an exact prefix of the stream.
		re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
		if err != nil {
			t.Fatalf("round %d: reopen after race: %v", round, err)
		}
		n := re.NextLSN()
		if n > uint64(len(ops)) {
			t.Fatalf("round %d: recovered LSN %d beyond stream end %d", round, n, len(ops))
		}
		info := re.Recovery()
		if info.SnapshotOps+info.ReplayedOps != n {
			t.Fatalf("round %d: LSN accounting: snapshot %d + replayed %d != %d",
				round, info.SnapshotOps, info.ReplayedOps, n)
		}
		checkStoreAgainst(t, re, ops[:n])
		re.Crash()
	}
}

// checkStoreAgainst asserts the stream's store matches the oracle over
// exactly the given prefix.
func checkStoreAgainst(t *testing.T, ds *graphtinker.DurableStream, prefix []graphtinker.Update) {
	t.Helper()
	ref := oracleOver(prefix)
	store := ds.Store()
	if got, want := store.NumEdges(), ref.NumEdges(); got != want {
		t.Fatalf("recovered store has %d edges, oracle %d", got, want)
	}
	for _, e := range ref.Edges() {
		if w, ok := store.FindEdge(e.Src, e.Dst); !ok || w != e.Weight {
			t.Fatalf("edge (%d,%d): store (%v,%v), oracle (%v,true)", e.Src, e.Dst, w, ok, e.Weight)
		}
	}
}

// TestAutoCheckpointOncePerThreshold pins the auto-checkpoint re-check:
// eight producers push 800 ops across a 500-op SnapshotEvery. Their
// pushes serialize inside the pipeline (slowed here so that they are all
// in flight together), so three of them cross the threshold after the
// producer that crossed it first and queue behind its checkpoint. The
// queued ones must find the period restarted and return; they used to
// write one more full snapshot each, admission closed throughout. At most
// 300 ops arrive after the one checkpoint, so exactly one is right.
func TestAutoCheckpointOncePerThreshold(t *testing.T) {
	const producers, batch = 8, 100
	dir := t.TempDir()
	opts := graphtinker.DurableStreamOptions{
		Shards:     2,
		Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: batch, FlushInterval: -1},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SnapshotEvery: 5 * batch},
	}
	ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Crash()

	defer faultinject.Reset()
	// Each push fills the pipeline's batch and appends it to the WAL under
	// the pipeline's lock; the delay queues the other producers behind it,
	// already past admission. wal/dir-install fires twice per checkpoint.
	for name, spec := range map[string]string{"wal/append": "delay(5ms)", "wal/dir-install": "delay(1ms)"} {
		if err := faultinject.Set(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	errs := make(chan error, producers)
	for k := 0; k < producers; k++ {
		go func(ops []graphtinker.Update) {
			<-start
			errs <- ds.PushBatch(ops)
		}(genStream(batch, uint64(70+k)))
	}
	close(start)
	for k := 0; k < producers; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.LastCheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if got := faultinject.Fired("wal/dir-install"); got != 2 {
		t.Fatalf("%d snapshot installs for one crossed threshold, want 1", got/2)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.gts"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots on disk: %v (%v), want one", snaps, err)
	}
}

func TestSessionRecoverUpgradesGTK1Snapshot(t *testing.T) {
	// Hand-build a session directory the way a build that still wrote GTK1
	// would have left it: a lone-graph checkpoint bound by the manifest, no
	// WAL tail. The checkpoint bytes are internal/core/testdata/
	// graph_gtk1.gts, the GTK1 dump of v1FixtureOps on one graph.
	dir := t.TempDir()
	gtk1, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "graph_gtk1.gts"))
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("snap-%016x.gts", 5000)
	if err := os.WriteFile(filepath.Join(dir, name), gtk1, 0o644); err != nil {
		t.Fatal(err)
	}
	crc, size, err := wal.FileCRC(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteManifest(dir, wal.Manifest{
		Snapshot: name, LastLSN: 5000,
		SnapshotCRC: crc, SnapshotBytes: size, Shards: 1,
	}); err != nil {
		t.Fatal(err)
	}

	s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Recover(dir)
	if err != nil {
		t.Fatalf("recover over a GTK1 snapshot: %v", err)
	}
	if !info.Recovered || info.SnapshotOps != 5000 || info.ReplayedOps != 0 {
		t.Fatalf("GTK1 recovery info %+v, want Recovered with 5000 snapshot ops", info)
	}
	ref := oracleOver(v1FixtureOps())
	testutil.CheckAgainstRef(t, s.Graph(), ref)

	// One logged batch, then a checkpoint: the directory upgrades in place
	// to a one-section v2 file.
	var b graphtinker.Batch
	for i := uint64(0); i < 100; i++ {
		b.Insert = append(b.Insert, graphtinker.Edge{Src: 900 + i%7, Dst: i, Weight: float32(i)})
		ref.Insert(900+i%7, i, float32(i))
	}
	if out := s.ApplyBatch(b); out.DurabilityErr != nil {
		t.Fatal(out.DurabilityErr)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersion(t, dir); v != 2 {
		t.Fatalf("post-upgrade checkpoint is v%d, want v2", v)
	}
	m, _, err := wal.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if shards := binary.LittleEndian.Uint32(raw[6:]); shards != 1 || m.Shards != 1 {
		t.Fatalf("upgraded snapshot holds %d sections and the manifest says Shards: %d, want 1 and 1", shards, m.Shards)
	}

	re, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Recover(dir); err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurability()
	testutil.CheckAgainstRef(t, re.Graph(), ref)
}
