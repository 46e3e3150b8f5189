package graphtinker_test

// Chaos / recovery differential suite — the acceptance gate for the
// durability layer. Strategy: every test drives a deterministic op stream,
// kills the durable store (in-process crash: buffers dropped, nothing
// synced) at a failpoint or mid-stream, reopens the directory, and asserts
// the recovered store differentially matches the testutil oracle replayed
// over exactly the recovered prefix of the submitted stream — and that the
// prefix covers every acknowledged op. LSN accounting (snapshot ops +
// replayed ops = recovered position) pins zero duplicate applications.

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	graphtinker "graphtinker"
	"graphtinker/internal/faultinject"
	"graphtinker/internal/testutil"
	"graphtinker/internal/wal"
)

// genStream builds a deterministic mixed insert/delete op stream.
func genStream(n int, seed uint64) []graphtinker.Update {
	r := testutil.Rand{S: seed}
	ops := make([]graphtinker.Update, 0, n)
	for i := 0; i < n; i++ {
		src, dst := r.Next()%400, r.Next()%400
		if r.Intn(5) == 0 {
			ops = append(ops, graphtinker.DeleteUpdate(src, dst))
		} else {
			ops = append(ops, graphtinker.InsertUpdate(src, dst, r.Float32()))
		}
	}
	return ops
}

// oracleOver replays ops on the reference oracle.
func oracleOver(ops []graphtinker.Update) *testutil.RefGraph {
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

func TestDurableStreamCheckpointCloseReopen(t *testing.T) {
	dir := t.TempDir()
	ops := genStream(12000, 42)
	opts := graphtinker.DurableStreamOptions{
		Shards: 4,
		Pipeline: graphtinker.StreamPipelineOptions{
			MaxBatch: 512, FlushInterval: -1,
		},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SegmentBytes: 1 << 16},
	}
	ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Recovery().Recovered {
		t.Fatal("fresh directory reported recovered state")
	}
	if err := ds.PushBatch(ops[:7000]); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.PushBatch(ops[7000:]); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	info := re.Recovery()
	if !info.Recovered {
		t.Fatal("reopen did not report recovery")
	}
	if info.SnapshotOps != 7000 {
		t.Fatalf("snapshot covered %d ops, want 7000 (checkpoint position)", info.SnapshotOps)
	}
	if info.SnapshotOps+info.ReplayedOps != uint64(len(ops)) {
		t.Fatalf("snapshot %d + replayed %d ≠ %d submitted (lost or duplicated ops)",
			info.SnapshotOps, info.ReplayedOps, len(ops))
	}
	if got := re.NextLSN(); got != uint64(len(ops)) {
		t.Fatalf("NextLSN = %d, want %d", got, len(ops))
	}
	testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops))
}

func TestDurableStreamCrashLosesOnlyUnackedTail(t *testing.T) {
	dir := t.TempDir()
	ops := genStream(10000, 77)
	opts := graphtinker.DurableStreamOptions{
		Shards: 4,
		Pipeline: graphtinker.StreamPipelineOptions{
			MaxBatch: 256, FlushInterval: -1,
		},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1},
	}
	ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Acknowledge 6000 ops at a durability barrier, then push a tail that
	// is never flushed or synced, and crash.
	if err := ds.PushBatch(ops[:6000]); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	acked := uint64(6000)
	if err := ds.PushBatch(ops[6000:]); err != nil {
		t.Fatal(err)
	}
	ds.Crash()

	re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := re.NextLSN()
	if n < acked {
		t.Fatalf("recovered only %d ops; %d were acknowledged at the barrier", n, acked)
	}
	if n > uint64(len(ops)) {
		t.Fatalf("recovered %d ops but only %d were submitted", n, len(ops))
	}
	// The recovered store must be exactly the first n submitted ops.
	testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops[:n]))

	// The stream continues correctly from the recovered position.
	if err := re.PushBatch(ops[n:]); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops))
	if _, err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableStreamTransientFaultsAreTransparent(t *testing.T) {
	cases := []struct{ name, fp, spec string }{
		{"fsync", "wal/fsync", "error*2"},
		{"rotate", "wal/rotate", "error*1"},
		{"apply", "ingest/apply", "error*2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Reset()
			dir := t.TempDir()
			ops := genStream(8000, 0xbeef)
			opts := graphtinker.DurableStreamOptions{
				Shards: 4,
				Pipeline: graphtinker.StreamPipelineOptions{
					MaxBatch: 256, FlushInterval: -1,
					MaxRetries: 4, RetryBase: 200 * time.Microsecond,
				},
				Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SegmentBytes: 1 << 15},
			}
			ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := faultinject.Set(tc.fp, tc.spec); err != nil {
				t.Fatal(err)
			}
			if err := ds.PushBatch(ops); err != nil {
				t.Fatalf("push under transient %s fault: %v", tc.fp, err)
			}
			if err := ds.Flush(); err != nil {
				t.Fatalf("flush under transient %s fault: %v", tc.fp, err)
			}
			tot := ds.Totals()
			if tot.Dropped != 0 || tot.DegradedShards != 0 || tot.WALDegraded {
				t.Fatalf("transient fault degraded the pipeline: %+v", tot)
			}
			testutil.CheckAgainstRef(t, ds.Store(), oracleOver(ops))
			if _, err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			// And the durable image matches too.
			re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops))
			re.Close()
		})
	}
}

func TestDurableStreamKillAtFailpoints(t *testing.T) {
	// Persistent faults at every wired failpoint, then a crash: recovery
	// must restore an exact prefix of the submitted stream covering every
	// op acknowledged at the last successful barrier.
	cases := []struct{ name, fp, spec string }{
		{"append-error", "wal/append", "error"},
		{"append-partial", "wal/append-partial", "partial*1"},
		{"fsync-error", "wal/fsync", "error"},
		{"rotate-error", "wal/rotate", "error"},
		{"apply-panic", "ingest/apply", "panic*1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Reset()
			dir := t.TempDir()
			ops := genStream(9000, 0xfeed)
			opts := graphtinker.DurableStreamOptions{
				Shards: 4,
				Pipeline: graphtinker.StreamPipelineOptions{
					MaxBatch: 256, FlushInterval: -1,
					MaxRetries: 1, RetryBase: 100 * time.Microsecond,
				},
				Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SegmentBytes: 1 << 15},
			}
			ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Healthy phase: 4000 ops acknowledged at a barrier.
			if err := ds.PushBatch(ops[:4000]); err != nil {
				t.Fatal(err)
			}
			if err := ds.Flush(); err != nil {
				t.Fatal(err)
			}
			acked := uint64(4000)
			// Fault phase: arm the failpoint and keep pushing until the
			// stream dies or the stream ends; errors are expected here.
			if err := faultinject.Set(tc.fp, tc.spec); err != nil {
				t.Fatal(err)
			}
			for i := 4000; i < len(ops); i += 256 {
				end := i + 256
				if end > len(ops) {
					end = len(ops)
				}
				if err := ds.PushBatch(ops[i:end]); err != nil {
					break
				}
			}
			_ = ds.Flush() // may fail; nothing after `acked` is asserted durable
			ds.Crash()
			faultinject.Reset()

			re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
			if err != nil {
				t.Fatalf("recovery after %s: %v", tc.name, err)
			}
			defer re.Close()
			info := re.Recovery()
			n := re.NextLSN()
			if info.SnapshotOps+info.ReplayedOps != n {
				t.Fatalf("snapshot %d + replayed %d ≠ recovered position %d (duplicate or lost records)",
					info.SnapshotOps, info.ReplayedOps, n)
			}
			if n < acked {
				t.Fatalf("recovered %d ops; %d were acknowledged before the fault", n, acked)
			}
			if n > uint64(len(ops)) {
				t.Fatalf("recovered %d ops but only %d were submitted", n, len(ops))
			}
			testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops[:n]))
		})
	}
}

func TestDurableStreamPanicDroppedOpsRepairedByRecovery(t *testing.T) {
	// A contained apply panic degrades the pipeline, which drops its
	// flushes from memory — but the WAL already has them, so a
	// crash+recover round trip repairs the loss.
	t.Cleanup(faultinject.Reset)
	faultinject.Reset()
	dir := t.TempDir()
	ops := genStream(5000, 0xabc)
	opts := graphtinker.DurableStreamOptions{
		Shards: 4,
		Pipeline: graphtinker.StreamPipelineOptions{
			MaxBatch: 512, FlushInterval: -1,
		},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1},
	}
	ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Set("ingest/apply", "panic*1"); err != nil {
		t.Fatal(err)
	}
	if err := ds.PushBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); !errors.Is(err, graphtinker.ErrStreamDegraded) {
		t.Fatalf("Flush over a panicked shard = %v, want ErrStreamDegraded", err)
	}
	tot := ds.Totals()
	if tot.Panics == 0 || tot.Dropped == 0 || tot.DegradedShards != opts.Shards {
		t.Fatalf("totals = %+v, want every shard degraded with dropped ops", tot)
	}
	ds.Crash()
	faultinject.Reset()

	re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n := re.NextLSN()
	// Every admitted op was WAL-appended before the panic dropped it.
	testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops[:n]))
	if got, want := re.Store().NumEdges(), oracleOver(ops[:n]).NumEdges(); got != want {
		t.Fatalf("recovered %d edges, oracle has %d", got, want)
	}
}

// sessionBatches builds deterministic batches plus the equivalent flat op
// stream in WAL order (a batch logs inserts, then deletes).
func sessionBatches(nBatches, perBatch int, seed uint64) ([]graphtinker.Batch, []graphtinker.Update) {
	r := testutil.Rand{S: seed}
	var batches []graphtinker.Batch
	var flat []graphtinker.Update
	for b := 0; b < nBatches; b++ {
		var batch graphtinker.Batch
		for i := 0; i < perBatch; i++ {
			e := graphtinker.Edge{Src: r.Next() % 300, Dst: r.Next() % 300, Weight: r.Float32()}
			batch.Insert = append(batch.Insert, e)
		}
		for i := 0; i < perBatch/4; i++ {
			batch.Delete = append(batch.Delete, graphtinker.Edge{Src: r.Next() % 300, Dst: r.Next() % 300})
		}
		batches = append(batches, batch)
		for _, e := range batch.Insert {
			flat = append(flat, graphtinker.InsertUpdate(e.Src, e.Dst, e.Weight))
		}
		for _, e := range batch.Delete {
			flat = append(flat, graphtinker.DeleteUpdate(e.Src, e.Dst))
		}
	}
	return batches, flat
}

func TestSessionRecoverKillAtFailpoints(t *testing.T) {
	// The acceptance-criteria test: force a crash at each wired WAL
	// failpoint mid-session; Session.Recover must restore a graph
	// differentially identical to the oracle over the recovered prefix,
	// covering every acknowledged batch, with zero duplicate applications.
	cases := []struct{ name, fp, spec string }{
		{"append-error", "wal/append", "error"},
		{"append-partial", "wal/append-partial", "partial*1"},
		{"fsync-error", "wal/fsync", "error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Reset()
			dir := t.TempDir()
			batches, flat := sessionBatches(40, 50, 0x5e55)

			s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			// SyncInterval 0: every append fsyncs, so acknowledged ⇒ durable.
			if err := s.EnableDurability(dir, graphtinker.DurabilityOptions{SyncInterval: 0}); err != nil {
				t.Fatal(err)
			}
			var ackedOps uint64
			degradedAt := -1
			for i, b := range batches {
				if i == 20 {
					if err := faultinject.Set(tc.fp, tc.spec); err != nil {
						t.Fatal(err)
					}
				}
				out := s.ApplyBatch(b)
				if out.DurabilityErr != nil {
					degradedAt = i
					break
				}
				ackedOps += uint64(len(b.Insert) + len(b.Delete))
			}
			if degradedAt < 20 {
				t.Fatalf("failpoint %s never degraded the session (stopped at %d)", tc.fp, degradedAt)
			}
			// Once degraded, every further batch must be refused — the
			// prefix invariant depends on it.
			if out := s.ApplyBatch(batches[degradedAt]); !errors.Is(out.DurabilityErr, graphtinker.ErrDurabilityDegraded) {
				t.Fatalf("batch after degradation: DurabilityErr = %v, want ErrDurabilityDegraded", out.DurabilityErr)
			}
			s.CrashDurability()
			faultinject.Reset()

			s2, err := graphtinker.NewSession(graphtinker.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			info, err := s2.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			n := info.SnapshotOps + info.ReplayedOps
			if n < ackedOps {
				t.Fatalf("recovered %d ops; %d were acknowledged", n, ackedOps)
			}
			if n > uint64(len(flat)) {
				t.Fatalf("recovered %d ops but only %d were submitted", n, len(flat))
			}
			testutil.CheckAgainstRef(t, s2.Graph(), oracleOver(flat[:n]))
			if err := s2.CloseDurability(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSessionRecoverFailureLeavesSessionFresh(t *testing.T) {
	// A Recover that fails partway (here: the snapshot loads, then the WAL
	// turns out to be missing a middle segment) must not leave the session
	// holding the half-recovered graph: the same session must still be
	// fresh enough to Recover a good directory.
	build := func(dir string) []graphtinker.Update {
		batches, flat := sessionBatches(40, 50, 0xbad)
		s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableDurability(dir, graphtinker.DurabilityOptions{SyncInterval: -1, SegmentBytes: 1 << 12}); err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			if out := s.ApplyBatch(b); out.DurabilityErr != nil {
				t.Fatal(out.DurabilityErr)
			}
			if i == 4 {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		return flat
	}
	bad, good := t.TempDir(), t.TempDir()
	build(bad)
	flat := build(good)
	segs, err := filepath.Glob(filepath.Join(bad, "wal", "*.wal"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 WAL segments past the checkpoint, got %v (err %v)", segs, err)
	}
	sort.Strings(segs)
	if err := os.Remove(segs[len(segs)/2]); err != nil {
		t.Fatal(err)
	}

	s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(bad); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Recover over a log with a missing middle segment = %v, want ErrCorrupt", err)
	}
	if n := s.Graph().NumEdges(); n != 0 {
		t.Fatalf("failed Recover left %d edges in the session's graph", n)
	}
	info, err := s.Recover(good)
	if err != nil {
		t.Fatalf("Recover of a good directory after a failed one: %v", err)
	}
	if n := info.SnapshotOps + info.ReplayedOps; n != uint64(len(flat)) {
		t.Fatalf("recovered %d ops, want %d", n, len(flat))
	}
	testutil.CheckAgainstRef(t, s.Graph(), oracleOver(flat))
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionRecoverIdempotentReplay(t *testing.T) {
	// Replaying an already-applied suffix must be a no-op: recovering the
	// same directory repeatedly (which re-replays the same WAL tail each
	// time) always yields the identical graph.
	dir := t.TempDir()
	batches, flat := sessionBatches(20, 40, 0x1de7)
	s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDurability(dir, graphtinker.DurabilityOptions{SyncInterval: 0, SnapshotEvery: 300}); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if out := s.ApplyBatch(b); out.DurabilityErr != nil {
			t.Fatal(out.DurabilityErr)
		}
	}
	s.CrashDurability() // unclean exit; SyncInterval 0 made every batch durable

	oracle := oracleOver(flat)
	for round := 0; round < 3; round++ {
		sr, err := graphtinker.NewSession(graphtinker.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		info, err := sr.Recover(dir)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := info.SnapshotOps + info.ReplayedOps; got != uint64(len(flat)) {
			t.Fatalf("round %d: recovered %d ops, want all %d", round, got, len(flat))
		}
		if info.SnapshotOps == 0 {
			t.Fatalf("round %d: SnapshotEvery never checkpointed", round)
		}
		testutil.CheckAgainstRef(t, sr.Graph(), oracle)
		if err := sr.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionEnableDurabilityCoversPreexistingState(t *testing.T) {
	dir := t.TempDir()
	s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// State built before durability was enabled must survive via the
	// immediate LSN-0 checkpoint.
	s.Graph().InsertEdge(1, 2, 3)
	s.Graph().InsertEdge(2, 3, 4)
	if err := s.EnableDurability(dir, graphtinker.DurabilityOptions{SyncInterval: 0}); err != nil {
		t.Fatal(err)
	}
	out := s.ApplyBatch(graphtinker.Batch{Insert: []graphtinker.Edge{{Src: 3, Dst: 4, Weight: 5}}})
	if out.DurabilityErr != nil {
		t.Fatal(out.DurabilityErr)
	}
	s.CrashDurability()

	s2, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	for _, e := range []graphtinker.Edge{{Src: 1, Dst: 2, Weight: 3}, {Src: 2, Dst: 3, Weight: 4}, {Src: 3, Dst: 4, Weight: 5}} {
		if w, ok := s2.Graph().FindEdge(e.Src, e.Dst); !ok || w != e.Weight {
			t.Fatalf("edge (%d,%d): got (%g,%v), want weight %g", e.Src, e.Dst, w, ok, e.Weight)
		}
	}
	s2.CloseDurability()
}

func TestSessionDurabilityGuards(t *testing.T) {
	dir := t.TempDir()
	s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDurability(dir, graphtinker.DurabilityOptions{SyncInterval: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDurability(dir, graphtinker.DurabilityOptions{}); err == nil {
		t.Fatal("double EnableDurability accepted")
	}
	if out := s.ApplyBatch(graphtinker.Batch{Insert: []graphtinker.Edge{{Src: 1, Dst: 2, Weight: 1}}}); out.DurabilityErr != nil {
		t.Fatal(out.DurabilityErr)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	// A directory with logged state must route through Recover.
	s2, _ := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err := s2.EnableDurability(dir, graphtinker.DurabilityOptions{}); err == nil {
		t.Fatal("EnableDurability over a directory with logged ops accepted; want a use-Recover error")
	}
	// Recover demands a fresh session.
	s3, _ := graphtinker.NewSession(graphtinker.DefaultConfig())
	s3.ApplyBatch(graphtinker.Batch{Insert: []graphtinker.Edge{{Src: 9, Dst: 9, Weight: 9}}})
	if _, err := s3.Recover(dir); err == nil {
		t.Fatal("Recover into a used session accepted")
	}
}

func TestSessionAutoCheckpointFailureIsNotDurabilityErr(t *testing.T) {
	// An auto-checkpoint failure happens AFTER the batch was logged and
	// applied — it must land in CheckpointErr, never in DurabilityErr,
	// whose contract ("the batch was NOT applied") would make a caller
	// re-submit and double-apply the batch.
	t.Cleanup(faultinject.Reset)
	faultinject.Reset()
	dir := t.TempDir()
	s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// SyncInterval 0 fsyncs on every append; SnapshotEvery 1 checkpoints
	// after every batch.
	if err := s.EnableDurability(dir, graphtinker.DurabilityOptions{SyncInterval: 0, SnapshotEvery: 1}); err != nil {
		t.Fatal(err)
	}
	// Skip the batch's own append fsync, fail the checkpoint's fsync.
	if err := faultinject.Set("wal/fsync", "error*1@1"); err != nil {
		t.Fatal(err)
	}
	out := s.ApplyBatch(graphtinker.Batch{Insert: []graphtinker.Edge{{Src: 1, Dst: 2, Weight: 1}}})
	if out.DurabilityErr != nil {
		t.Fatalf("checkpoint failure reported as DurabilityErr: %v", out.DurabilityErr)
	}
	if out.CheckpointErr == nil {
		t.Fatal("failed auto-checkpoint did not set CheckpointErr")
	}
	if out.Inserted != 1 || s.Graph().NumEdges() != 1 {
		t.Fatalf("batch not applied: inserted=%d edges=%d", out.Inserted, s.Graph().NumEdges())
	}
	// The session is NOT degraded: the next batch (and its checkpoint,
	// with the failpoint exhausted) must succeed.
	out = s.ApplyBatch(graphtinker.Batch{Insert: []graphtinker.Edge{{Src: 3, Dst: 4, Weight: 1}}})
	if out.DurabilityErr != nil || out.CheckpointErr != nil {
		t.Fatalf("batch after transient checkpoint failure: durability=%v checkpoint=%v", out.DurabilityErr, out.CheckpointErr)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	// Recovery sees both batches exactly once.
	s2, err := graphtinker.NewSession(graphtinker.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainstRef(t, s2.Graph(), oracleOver([]graphtinker.Update{
		graphtinker.InsertUpdate(1, 2, 1),
		graphtinker.InsertUpdate(3, 4, 1),
	}))
	if err := s2.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableStreamAutoCheckpointFailureSurfacesOutOfBand(t *testing.T) {
	// PushBatch's nil return means "admitted" (logged at the next flush,
	// durable after Flush); a failed auto-checkpoint must not turn it into
	// an error (callers would retry and double-apply the admitted ops).
	// The failure surfaces via LastCheckpointErr instead.
	t.Cleanup(faultinject.Reset)
	faultinject.Reset()
	dir := t.TempDir()
	ops := genStream(200, 0xc4a5)
	opts := graphtinker.DurableStreamOptions{
		Shards:     2,
		Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: 512, FlushInterval: -1},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SnapshotEvery: 50},
	}
	ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Set("wal/fsync", "error*1"); err != nil {
		t.Fatal(err)
	}
	if err := ds.PushBatch(ops[:100]); err != nil {
		t.Fatalf("PushBatch returned the auto-checkpoint failure: %v", err)
	}
	if err := ds.LastCheckpointErr(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("LastCheckpointErr = %v, want the injected fsync error", err)
	}
	faultinject.Reset()
	// The stream is not degraded: further pushes and an explicit checkpoint
	// succeed, clearing the recorded error.
	if err := ds.PushBatch(ops[100:]); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.LastCheckpointErr(); err != nil {
		t.Fatalf("LastCheckpointErr after successful checkpoint = %v, want nil", err)
	}
	if _, err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	info := re.Recovery()
	if info.SnapshotOps+info.ReplayedOps != uint64(len(ops)) {
		t.Fatalf("snapshot %d + replayed %d ≠ %d submitted (lost or duplicated ops)",
			info.SnapshotOps, info.ReplayedOps, len(ops))
	}
	testutil.CheckAgainstRef(t, re.Store(), oracleOver(ops))
}
