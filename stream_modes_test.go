package graphtinker_test

// The seqlock's second replica is paid for by overlapping readers only
// (internal/core/seqlock.go). The whole write path has none: the primary's
// store is read by checkpoints, which quiesce admission first, and the
// follower's is not read while it applies. This file pins that, and that
// the benchmark module — its own module, invisible to `go test ./...` —
// still compiles against this tree.

import (
	"os"
	"os/exec"
	"testing"

	graphtinker "graphtinker"
	"graphtinker/internal/testutil"
)

// TestStreamRoundBuildsNoShadow drives a primary and one follower through
// what a stream-* benchmark round does — push, flush, auto-checkpoints,
// WaitForLSN — and only then reads both stores: every shard on both nodes
// must still hold one replica and must never have built a second one, so
// no clone can land inside an ack.
func TestStreamRoundBuildsNoShadow(t *testing.T) {
	const batch, batches = 512, 24
	ops := genStream(batch*batches, 83)
	prim, err := graphtinker.OpenReplicatedStream(graphtinker.DefaultConfig(), t.TempDir(), graphtinker.ReplicatedStreamOptions{
		Stream: graphtinker.DurableStreamOptions{
			Shards: 2,
			// Five auto-checkpoints fall inside the stream.
			Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SnapshotEvery: batch*batches/5 + 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Crash()
	f := openChaosFollower(t, t.TempDir(), nil)
	defer f.Crash()
	errc := connectChaos(prim, f)

	for k := 0; k < batches; k++ {
		if err := prim.PushBatch(ops[k*batch : (k+1)*batch]); err != nil {
			t.Fatal(err)
		}
		if k%4 == 3 {
			if err := prim.Flush(); err != nil {
				t.Fatal(err)
			}
			waitFollower(t, f, prim.NextLSN())
		}
	}
	if err := prim.LastCheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if info, lsn := prim.Recovery(), prim.NextLSN(); info.Recovered || lsn != uint64(len(ops)) {
		t.Fatalf("primary at LSN %d (recovered %v), want a fresh stream at %d", lsn, info.Recovered, len(ops))
	}
	select {
	case err := <-errc:
		t.Fatalf("follower stream ended early: %v", err)
	default:
	}

	ref := oracleOver(ops)
	for name, store := range map[string]*graphtinker.Parallel{"primary": prim.Store(), "follower": f.Store()} {
		st := store.Stats()
		if st.ShadowBuilds != 0 || st.Replicas != store.NumShards() {
			t.Errorf("%s: %d shadow builds, %d replicas over %d shards; a write path nobody reads beside must stay single-replica",
				name, st.ShadowBuilds, st.Replicas, store.NumShards())
		}
		testutil.CheckAgainstRef(t, store, ref)
	}
}

// TestBenchmarkModuleVets compiles and vets ./benchmark with the
// environment benchmark/run.sh sets, so a change here that breaks it fails
// tier-1 verify and not the pipeline's benchmark run.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go command on a second module")
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in ./benchmark: %v\n%s", err, out)
	}
}
