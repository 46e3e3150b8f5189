package bench

// recovery.go is the recovery-time section of the perf sweep: four probes
// covering the crash-recovery critical path the v2 parallel snapshot
// format and the pipelined WAL replay exist to shorten — snapshot write
// bandwidth, snapshot load bandwidth (parallel bulk load vs. its own
// sequential oracle), WAL tail replay throughput (pipelined vs. the old
// per-record allocate-and-apply loop), and an end-to-end durable-directory
// reopen. MB/s numbers are recorded for trajectory tracking but never
// gated (hardware-dependent); the SpeedupX ratios are self-relative —
// both sides run on the same machine in the same process — which is what
// makes them gateable from a committed baseline (see ComparePerf).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	graphtinker "graphtinker"
	"graphtinker/internal/core"
	"graphtinker/internal/wal"
)

// countWriter measures a snapshot's size without keeping its bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// mbPerSec converts one op's byte volume and duration into MB/s.
func mbPerSec(bytes int64, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (nsPerOp / 1e9)
}

// appendRecoveryProbes runs the recovery section of the sweep and appends
// its results to rep. The dataset is 32 batches' worth of skewed edges —
// big enough that the per-shard parallelism has something to chew on,
// small enough that the whole section stays CI-sized.
func appendRecoveryProbes(o PerfOptions, rep *PerfReport) error {
	nOps := 32 * o.EdgesPerOp
	vertices := uint64(4 * o.EdgesPerOp)
	edges := perfEdges(nOps, vertices, 41)
	cfg := o.config()

	p, err := core.NewParallel(cfg, o.Shards)
	if err != nil {
		return err
	}
	p.InsertBatch(edges)

	// recovery/snapshot-write: the checkpoint encode path — per-shard
	// sections encoded concurrently under one pin fence, written in order.
	var snapBytes int64
	{
		res := measureOp(o, nOps, func() {
			cw := &countWriter{}
			if err := p.WriteSnapshot(cw); err != nil {
				panic(err)
			}
			snapBytes = cw.n
		})
		res.Name = "recovery/snapshot-write"
		res.MBPerSec = mbPerSec(snapBytes, res.NsPerOp)
		rep.Results = append(rep.Results, res)
	}

	// recovery/snapshot-load: the v2 parallel bulk load, with SpeedupX
	// measured against the sequential op-by-op oracle over the same bytes.
	var snap bytes.Buffer
	if err := p.WriteSnapshot(&snap); err != nil {
		return err
	}
	{
		bulk := measureOp(o, nOps, func() {
			if _, err := core.ReadParallelSnapshot(bytes.NewReader(snap.Bytes()), nil); err != nil {
				panic(err)
			}
		})
		seq := measureOp(o, nOps, func() {
			if _, err := core.ReadParallelSnapshotSequential(bytes.NewReader(snap.Bytes()), nil); err != nil {
				panic(err)
			}
		})
		bulk.Name = "recovery/snapshot-load"
		bulk.MBPerSec = mbPerSec(int64(snap.Len()), bulk.NsPerOp)
		bulk.SpeedupX = seq.NsPerOp / bulk.NsPerOp
		rep.Results = append(rep.Results, bulk)
	}

	// Shared on-disk state for the replay and reopen probes.
	dir, err := os.MkdirTemp("", "gtbench-recovery-")
	if err != nil {
		return fmt.Errorf("bench: recovery: %w", err)
	}
	defer os.RemoveAll(dir)

	ops := make([]core.EdgeOp, len(edges))
	for i, e := range edges {
		ops[i] = core.InsertOp(e.Src, e.Dst, e.Weight)
	}

	// recovery/wal-replay: batched tail replay (wal.ReplayInto) into a
	// fresh sharded store, with SpeedupX against the per-record shape —
	// per-record partition allocation and same-goroutine shard application.
	wdir := filepath.Join(dir, "wal")
	{
		l, err := wal.Open(wdir, wal.Options{SyncInterval: -1})
		if err != nil {
			return err
		}
		for i := 0; i < len(ops); i += 512 {
			end := i + 512
			if end > len(ops) {
				end = len(ops)
			}
			if _, err := l.Append(ops[i:end]); err != nil {
				_ = l.Close()
				return err
			}
		}
		if err := l.Close(); err != nil {
			return err
		}

		piped := measureOp(o, len(ops), func() {
			g, err := core.NewParallel(cfg, o.Shards)
			if err != nil {
				panic(err)
			}
			if _, err := wal.ReplayInto(wdir, 0, nil, g); err != nil {
				panic(err)
			}
		})
		naive := measureOp(o, len(ops), func() {
			g, err := core.NewParallel(cfg, o.Shards)
			if err != nil {
				panic(err)
			}
			_, err = wal.Replay(wdir, 0, nil, func(lsn uint64, rec []core.EdgeOp) error {
				parts := make([][]core.EdgeOp, g.NumShards())
				for _, op := range rec {
					s := g.ShardOf(op.Src)
					parts[s] = append(parts[s], op)
				}
				for s, part := range parts {
					if len(part) > 0 {
						g.ApplyShard(s, part)
					}
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
		})
		piped.Name = "recovery/wal-replay"
		piped.SpeedupX = naive.NsPerOp / piped.NsPerOp
		rep.Results = append(rep.Results, piped)
	}

	// recovery/reopen: the whole OpenDurableStream recovery path — manifest
	// load, v2 snapshot bulk load, batched WAL tail replay — against a
	// directory whose snapshot covers half the ops and whose WAL holds the
	// rest.
	{
		ddir := filepath.Join(dir, "store")
		sopts := graphtinker.DurableStreamOptions{
			Shards:     o.Shards,
			Durability: graphtinker.DurabilityOptions{SyncInterval: -1},
		}
		d, err := graphtinker.OpenDurableStream(cfg, ddir, sopts)
		if err != nil {
			return err
		}
		half := len(ops) / 2
		if err := d.PushBatch(ops[:half]); err != nil {
			return err
		}
		if err := d.Checkpoint(); err != nil {
			return err
		}
		if err := d.PushBatch(ops[half:]); err != nil {
			return err
		}
		if err := d.Flush(); err != nil {
			return err
		}
		if _, err := d.Close(); err != nil {
			return err
		}

		res := measureOp(o, len(ops), func() {
			d, err := graphtinker.OpenDurableStream(cfg, ddir, sopts)
			if err != nil {
				panic(err)
			}
			if _, err := d.Close(); err != nil {
				panic(err)
			}
		})
		res.Name = "recovery/reopen"
		rep.Results = append(rep.Results, res)
	}
	return nil
}
