package ingest

// FuzzPipelineOps replays a fuzzed insert/delete stream through a
// pipeline over a small core.Parallel and checks the drained store and
// the pipeline's effect counts against the shared oracle. The bytes pick
// the shard count, MaxBatch, MaxPending, the push chunking and where
// Flush barriers fall, so flushes cut the stream at every boundary the
// fuzzer can reach. CI's scheduled smoke step explores further with
// -fuzz=FuzzPipelineOps.

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"graphtinker/internal/testutil"
)

func FuzzPipelineOps(f *testing.F) {
	f.Add([]byte{0, 3, 7, 2, 0, 1, 2, 2, 1, 2, 4, 3, 5})
	f.Add([]byte{3, 0, 0, 0, 1, 9, 9, 6, 9, 9, 3, 9, 9})
	f.Add(append([]byte{1, 15, 40, 5}, bytes.Repeat([]byte{8, 3, 5, 1, 3, 5, 8, 3, 6}, 40)...))
	f.Add(append([]byte{2, 63, 255, 15}, bytes.Repeat([]byte{4, 1, 2, 7, 2, 1}, 60)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		var cfg [4]byte
		data = data[copy(cfg[:], data):]
		shards := 1 + int(cfg[0]%4)
		opts := Options{
			MaxBatch:      1 + int(cfg[1]%64),
			MaxPending:    1 + int(cfg[2]),
			FlushInterval: -1,
		}
		if cfg[0]&0x80 != 0 {
			opts.FlushInterval = time.Millisecond
		}
		chunk := 1 + int(cfg[3]%16)

		par := newParallel(t, shards)
		pl := MustNew(par, opts)
		ref := testutil.NewRefGraph()
		var inserted, deleted uint64
		var pending []Update
		push := func() {
			if err := pl.PushBatch(pending); err != nil {
				t.Fatal(err)
			}
			pending = pending[:0]
		}
		// Three bytes an op: kind (bit 0 delete, bit 1 a Flush after the
		// op's chunk, the rest the weight), source and destination over a
		// small id space so pairs repeat.
		for i := 0; i+2 < len(data); i += 3 {
			kind, src, dst := data[i], uint64(data[i+1]%16), uint64(data[i+2]%32)
			if kind&1 != 0 {
				pending = append(pending, Delete(src, dst))
				if ref.Delete(src, dst) {
					deleted++
				}
			} else {
				w := float32(kind>>2) + 1
				pending = append(pending, Insert(src, dst, w))
				if ref.Insert(src, dst, w) {
					inserted++
				}
			}
			if len(pending) == chunk || kind&2 != 0 {
				push()
			}
			if kind&2 != 0 {
				pl.Flush()
			}
		}
		push()
		tot, err := pl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tot.Inserted != inserted || tot.Deleted != deleted || tot.Dropped != 0 {
			t.Fatalf("totals = %+v, oracle %d inserted / %d deleted", tot, inserted, deleted)
		}
		testutil.CheckAgainstRef(t, par, ref)
	})
}
