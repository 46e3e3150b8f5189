package graphtinker_test

// The durability-directory contract, checked once over all three clients
// of wal.Dir — Session, DurableStream and a ReplicaFollower bootstrap —
// with the same script: apply a prefix, install a snapshot cleanly (or,
// for the follower, log the prefix), apply more, then kill the next
// install inside each of its two crash windows and reopen. Whatever the
// client, the reopened state must be an exact oracle prefix, the LSN
// accounting must show zero duplicate applies, and no install temp file
// may survive the reopen.

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	graphtinker "graphtinker"
	"graphtinker/internal/faultinject"
	"graphtinker/internal/testutil"
)

const (
	contractCkpt = 1000 // ops covered by the clean first install
	contractKill = 2200 // ops covered by the install that gets killed
)

// reopened is what a client's recovery of the directory reports.
type reopened struct {
	info  graphtinker.RecoveryInfo
	lsn   uint64
	store testutil.Store
	// heal runs one more clean install (checkpoint, or reconnect for the
	// follower) and closes the client.
	heal func(t *testing.T)
}

// dirContractClient drives one wal.Dir client through the script.
type dirContractClient struct {
	name string
	// kill applies the script in dir up to the install at contractKill,
	// arming the failpoint (via arm) immediately before that install, and
	// then crashes the client. It returns the install's error.
	kill func(t *testing.T, dir string, batches []graphtinker.Batch, flat []graphtinker.Update, arm func()) error
	// prev is the LSN the previous (surviving) checkpoint covers and the
	// LSN a reopen reaches when the kill lands before the manifest.
	prevSnap, prevLSN uint64
	reopen            func(t *testing.T, dir string, flat []graphtinker.Update) reopened
}

func sessionContractClient() dirContractClient {
	opts := graphtinker.DurabilityOptions{SyncInterval: 0}
	return dirContractClient{
		name:     "session",
		prevSnap: contractCkpt, prevLSN: contractKill,
		kill: func(t *testing.T, dir string, batches []graphtinker.Batch, _ []graphtinker.Update, arm func()) error {
			s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.EnableDurability(dir, opts); err != nil {
				t.Fatal(err)
			}
			apply := func(bs []graphtinker.Batch) {
				for _, b := range bs {
					if out := s.ApplyBatch(b); out.DurabilityErr != nil {
						t.Fatal(out.DurabilityErr)
					}
				}
			}
			apply(batches[:contractCkpt/100])
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			apply(batches[contractCkpt/100 : contractKill/100])
			arm()
			err = s.Checkpoint()
			s.CrashDurability()
			return err
		},
		reopen: func(t *testing.T, dir string, _ []graphtinker.Update) reopened {
			s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			info, err := s.RecoverWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			return reopened{info: info, lsn: info.SnapshotOps + info.ReplayedOps, store: s.Graph(), heal: func(t *testing.T) {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := s.CloseDurability(); err != nil {
					t.Fatal(err)
				}
			}}
		},
	}
}

func streamContractClient() dirContractClient {
	opts := graphtinker.DurableStreamOptions{
		Shards:     2,
		Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: 256, FlushInterval: -1},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1, SegmentBytes: 1 << 14},
	}
	return dirContractClient{
		name:     "durable-stream",
		prevSnap: contractCkpt, prevLSN: contractKill,
		kill: func(t *testing.T, dir string, _ []graphtinker.Batch, flat []graphtinker.Update, arm func()) error {
			ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.PushBatch(flat[:contractCkpt]); err != nil {
				t.Fatal(err)
			}
			if err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := ds.PushBatch(flat[contractCkpt:contractKill]); err != nil {
				t.Fatal(err)
			}
			arm()
			err = ds.Checkpoint()
			ds.Crash()
			return err
		},
		reopen: func(t *testing.T, dir string, _ []graphtinker.Update) reopened {
			ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			return reopened{info: ds.Recovery(), lsn: ds.NextLSN(), store: ds.Store(), heal: func(t *testing.T) {
				if err := ds.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if _, err := ds.Close(); err != nil {
					t.Fatal(err)
				}
			}}
		},
	}
}

// followerContractClient's install is a snapshot bootstrap: the follower
// logs the first prefix live, falls behind a primary checkpoint that
// prunes its position away, and dies installing the shipped snapshot. Its
// "previous checkpoint" is therefore none at all — just its own log.
func followerContractClient() dirContractClient {
	var prim *graphtinker.ReplicatedStream
	return dirContractClient{
		name:     "follower-bootstrap",
		prevSnap: 0, prevLSN: contractCkpt,
		kill: func(t *testing.T, dir string, _ []graphtinker.Batch, flat []graphtinker.Update, arm func()) error {
			prim = openChaosPrimary(t, t.TempDir(), nil)
			t.Cleanup(prim.Crash)
			f := openChaosFollower(t, dir, nil)
			pc, fc := net.Pipe()
			served := make(chan struct{})
			go func() {
				_ = prim.HandleConn(pc) // ends when the follower's side closes; awaited below
				close(served)
			}()
			errc := make(chan error, 1)
			go func() { errc <- f.Run(fc) }()
			// Small acked chunks make the primary's log rotate, so the
			// checkpoint below has whole segments to prune.
			push := func(ops []graphtinker.Update) (acked uint64) {
				for len(ops) > 0 {
					n := min(250, len(ops))
					acked = pushAcked(t, prim, ops[:n])
					ops = ops[n:]
				}
				return acked
			}
			waitFollower(t, f, push(flat[:contractCkpt]))
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("Run after Close = %v, want nil", err)
			}
			// The primary notices the hangup on its next send; only once that
			// handler has exited is its tailer's retention pin gone, so the
			// checkpoint below can prune the follower's position away.
			push(flat[contractCkpt:contractKill])
			<-served
			if err := prim.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			push(flat[contractKill:])
			arm()
			f = openChaosFollower(t, dir, nil)
			var err error
			select {
			case err = <-connectChaos(prim, f):
			case <-time.After(10 * time.Second):
				t.Fatal("follower neither bootstrapped nor died within 10s")
			}
			f.Crash()
			return err
		},
		reopen: func(t *testing.T, dir string, flat []graphtinker.Update) reopened {
			rec := graphtinker.NewReplicationRecorder()
			f := openChaosFollower(t, dir, rec)
			info := f.Recovery()
			return reopened{
				info: graphtinker.RecoveryInfo{Recovered: info.Recovered, SnapshotOps: info.SnapshotOps, ReplayedOps: info.ReplayedOps},
				lsn:  f.AppliedLSN(), store: f.Store(),
				heal: func(t *testing.T) {
					errc := connectChaos(prim, f)
					waitFollower(t, f, uint64(len(flat)))
					testutil.CheckAgainstRef(t, f.Store(), oracleOver(flat))
					if d := rec.Snapshot().DuplicateRecords; d != 0 {
						t.Fatalf("resume shipped %d duplicate records", d)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
					if err := <-errc; err != nil {
						t.Fatalf("Run after Close = %v, want nil", err)
					}
				},
			}
		},
	}
}

func TestDirContractKillInsideInstall(t *testing.T) {
	batches, flat := sessionBatches(30, 80, 0xd1c0) // 30 batches × 100 ops
	steps := []struct {
		name, spec string
		installed  bool // did the killed install's manifest land?
	}{
		{"after-snapshot-rename", "error*1", false},
		{"after-manifest", "error*1@1", true},
	}
	for _, mk := range []func() dirContractClient{sessionContractClient, streamContractClient, followerContractClient} {
		for _, step := range steps {
			c := mk()
			t.Run(c.name+"/"+step.name, func(t *testing.T) {
				faultinject.Reset()
				t.Cleanup(faultinject.Reset)
				dir := t.TempDir()

				err := c.kill(t, dir, batches, flat, func() {
					if err := faultinject.Set("wal/dir-install", step.spec); err != nil {
						t.Fatal(err)
					}
				})
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("killed install returned %v, want the injected error", err)
				}
				faultinject.Reset()

				wantSnap, wantLSN := c.prevSnap, c.prevLSN
				if step.installed {
					wantSnap, wantLSN = contractKill, contractKill
				}
				// A process killed mid-install (or mid-manifest-write) leaves
				// its temp file behind; reopen must sweep every kind.
				for _, stale := range []string{".snap-stale", ".bootstrap-stale", ".manifest-stale"} {
					if err := os.WriteFile(filepath.Join(dir, stale), []byte("torn"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				re := c.reopen(t, dir, flat)
				if !re.info.Recovered || re.info.SnapshotOps != wantSnap {
					t.Fatalf("recovery info %+v, want Recovered from the checkpoint at %d", re.info, wantSnap)
				}
				if re.lsn != wantLSN || re.info.SnapshotOps+re.info.ReplayedOps != re.lsn {
					t.Fatalf("recovered LSN %d (snapshot %d + replayed %d), want %d with zero duplicate applies",
						re.lsn, re.info.SnapshotOps, re.info.ReplayedOps, wantLSN)
				}
				testutil.CheckAgainstRef(t, re.store, oracleOver(flat[:re.lsn]))
				assertNoInstallTemps(t, dir)

				// One more clean install leaves exactly the live snapshot:
				// the orphan a pre-manifest kill strands is garbage-collected.
				re.heal(t)
				assertNoInstallTemps(t, dir)
				if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.gts")); len(snaps) != 1 {
					t.Fatalf("want exactly the live snapshot after a clean install, got %v", snaps)
				}
			})
		}
	}
}

func assertNoInstallTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, p := range []string{".snap-", ".bootstrap-", ".manifest-"} {
			if strings.HasPrefix(e.Name(), p) {
				t.Fatalf("install temp file %s survived", e.Name())
			}
		}
	}
}
