package core

// FuzzParallelOps extends the FuzzGraphOps discipline to the sharded
// store: the same op-byte encoding is replayed against a core.Parallel
// (routing each op through a rotating mix of the single-edge and
// ApplyShard write paths) and the shared reference oracle, then the full
// observable state, per-shard invariants, and the partition invariant are
// checked. The seed corpus is checked in under
// testdata/fuzz/FuzzParallelOps; CI's scheduled smoke step explores
// further with -fuzz=FuzzParallelOps.

import (
	"bytes"
	"testing"

	"graphtinker/internal/testutil"
)

func FuzzParallelOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{7, 3}, 64))
	f.Add(bytes.Repeat([]byte{2, 11, 40, 0, 11, 40}, 21))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		shards := 1
		if len(data) > 0 {
			shards = 1 + int(data[0]%4)
		}
		cfg := testConfig(t)
		cfg.PageWidth = 16 // small geometry branches sooner
		p, err := NewParallel(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefGraph()
		for i := 0; i+2 < len(data); i += 3 {
			op, s, d := data[i], uint64(data[i+1]%32), uint64(data[i+2]%64)
			del := op%3 == 2
			w := float32(op) + 1
			// Alternate write paths: the single-edge routers and the
			// ordered ApplyShard entry point must agree.
			useApplyShard := (i/3)%2 == 1
			var changed, want bool
			if del {
				want = ref.delete(s, d)
				if useApplyShard {
					_, n := p.ApplyShard(p.ShardOf(s), []EdgeOp{DeleteOp(s, d)})
					changed = n == 1
				} else {
					changed = p.DeleteEdge(s, d)
				}
			} else {
				want = ref.insert(s, d, w)
				if useApplyShard {
					n, _ := p.ApplyShard(p.ShardOf(s), []EdgeOp{InsertOp(s, d, w)})
					changed = n == 1
				} else {
					changed = p.InsertEdge(s, d, w)
				}
			}
			if changed != want {
				t.Fatalf("op %d divergence: got %v, want %v", i, changed, want)
			}
		}
		testutil.CheckAgainstRef(t, p, ref.RefGraph)
		for s := 0; s < p.Shards(); s++ {
			if v := p.Shard(s).CheckInvariants(); len(v) != 0 {
				t.Fatalf("shard %d invariants: %v", s, v)
			}
			p.Shard(s).ForEachEdge(func(src, dst uint64, w float32) bool {
				if p.ShardOf(src) != s {
					t.Fatalf("edge (%d,%d) on shard %d, owned by %d", src, dst, s, p.ShardOf(src))
				}
				return true
			})
		}
	})
}
