package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"graphtinker/internal/rmat"
)

// applyStream is a mixed RMAT op stream cut into batches, built so a batch
// holds the cases phase 1 and phase 2 must keep in op order: in-batch
// duplicates, a delete before the insert that first shows its source, and
// (at testConfig's tiny thresholds) a promotion and a demotion of one
// vertex. One batch is longer than applyChunk, so it spans chunks.
func applyStream(t *testing.T) [][]EdgeOp {
	t.Helper()
	edges, err := rmat.Generate(rmat.Graph500Params(12, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	r := &testRand{s: 11}
	var ops []EdgeOp
	for i, e := range edges {
		ops = append(ops, InsertOp(e.Src, e.Dst, e.Weight))
		switch {
		case r.next()%4 == 0: // a duplicate with a new weight
			ops = append(ops, InsertOp(e.Src, e.Dst, e.Weight+1))
		case r.next()%3 == 0: // a delete of an earlier edge
			old := edges[r.next()%uint64(i+1)]
			ops = append(ops, DeleteOp(old.Src, old.Dst))
		}
	}
	var batches [][]EdgeOp
	for len(ops) > 0 {
		n := min(len(ops), []int{3000, applyChunk + 1500, 1100, 300}[len(batches)%4])
		batch := ops[:n:n]
		// A source never seen before: deleted, then grown past the
		// promote point and shrunk past the demote point, in one batch.
		fresh := uint64(1<<40 + len(batches))
		batch = append(batch, DeleteOp(fresh, 1))
		for d := uint64(1); d <= 12; d++ {
			batch = append(batch, InsertOp(fresh, d, float32(d)))
		}
		for d := uint64(1); d <= 10; d++ {
			batch = append(batch, DeleteOp(fresh, d))
		}
		batches = append(batches, batch)
		ops = ops[n:]
	}
	return batches
}

// TestApplyOpsMatchesOpByOp pins phase 2's determinism: a stream applied
// in batches — ApplyOps for mixed batches, InsertBatch and DeleteBatch for
// uniform ones — leaves exactly what applying it op by op leaves: every
// counter, the edge count, the id space and the snapshot bytes. It runs
// with no helper and with three; GT_REPR=blocks runs it on the block tree.
func TestApplyOpsMatchesOpByOp(t *testing.T) {
	stream := applyStream(t)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := testConfig(t)
			batched, single := MustNew(cfg), MustNew(cfg)
			var migrated bool
			for b, ops := range stream {
				before := batched.Stats()
				gotIns, gotDel := batched.ApplyOps(ops)
				wantIns, wantDel := opByOp(single, ops)
				if gotIns != wantIns || gotDel != wantDel {
					t.Fatalf("batch %d: ApplyOps = (%d, %d), op by op (%d, %d)", b, gotIns, gotDel, wantIns, wantDel)
				}
				after := batched.Stats()
				migrated = migrated || after.Promotions > before.Promotions && after.Demotions > before.Demotions
				// The same ops again, split by kind, through the uniform
				// batch calls.
				var ins, del []EdgeOp
				for _, op := range ops {
					if op.Del {
						del = append(del, op)
					} else {
						ins = append(ins, op)
					}
				}
				if got, want := batched.InsertBatch(opEdges(ins)), fst(opByOp(single, ins)); got != want {
					t.Fatalf("batch %d: InsertBatch = %d, op by op %d", b, got, want)
				}
				if _, want := opByOp(single, del); batched.DeleteBatch(opEdges(del)) != want {
					t.Fatalf("batch %d: DeleteBatch differs from op by op", b)
				}
			}
			// The block tree applies as one partition, on the caller.
			if cfg.Repr != ReprBlocks && !migrated {
				t.Fatalf("no batch both promoted and demoted a vertex")
			}
			if cfg.Repr != ReprBlocks && procs > 1 && applyHelpers.Load() < int32(procs-1) {
				t.Fatalf("%d helpers started at GOMAXPROCS %d", applyHelpers.Load(), procs)
			}
			assertSameGraph(t, batched, single)
		})
	}
}

// lookupStream is a preload of old sources, then batches whose every chunk
// mixes what the lookup round resolves with what it leaves to the caller:
// ops of old sources, the first inserts of new sources and their later ops
// in the same chunk, a delete before the first insert of a new source, and
// a delete of a source that has no container. The first batch of each
// pair splits into a full chunk and one of parallelMinOps ops, both handed
// to helpers; the second is one chunk below the cutoff, on the caller.
func lookupStream() [][]EdgeOp {
	const old = 512
	r := &testRand{s: 23}
	preload := make([]EdgeOp, 0, 4*old)
	for i := range 4 * old {
		preload = append(preload, InsertOp(uint64(i%old), r.next()%64, 1))
	}
	fresh, gone := uint64(old), uint64(1<<20)
	chunk := func(n int) []EdgeOp {
		first := fresh // this chunk's new sources are first..fresh
		ops := []EdgeOp{DeleteOp(first, 1), DeleteOp(gone, 1)}
		gone++
		for len(ops) < n {
			switch dst := r.next() % 64; r.next() % 8 {
			case 0:
				ops = append(ops, InsertOp(fresh, dst, 1))
				fresh++
			case 1:
				ops = append(ops, DeleteOp(first+r.next()%(fresh-first+1), dst))
			case 2:
				ops = append(ops, InsertOp(first+r.next()%(fresh-first+1), dst, 2))
			case 3: // a new high-water mark, from an old source's insert
				ops = append(ops, InsertOp(r.next()%old, 1<<40+fresh, 1))
			case 4:
				ops = append(ops, DeleteOp(r.next()%old, dst))
			default:
				ops = append(ops, InsertOp(r.next()%old, dst, 3))
			}
		}
		return ops
	}
	batches := [][]EdgeOp{preload}
	for range 3 {
		batches = append(batches, append(chunk(applyChunk), chunk(parallelMinOps)...), chunk(parallelMinOps/2))
	}
	return batches
}

// TestApplyLookupRoundMatchesOpByOp pins steps 1a and 1b: ApplyOps over
// lookupStream leaves what applying it op by op leaves, with and without
// SGH, at one, two and four procs. With helpers the lookup round must
// have split its chunks.
func TestApplyLookupRoundMatchesOpByOp(t *testing.T) {
	stream := lookupStream()
	for _, procs := range []int{1, 2, 4} {
		for _, sgh := range []bool{true, false} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/sgh=%v", procs, sgh), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := testConfig(t)
				cfg.EnableSGH = sgh
				batched, single := MustNew(cfg), MustNew(cfg)
				for b, ops := range stream {
					var epoch uint32
					if batched.job != nil {
						epoch = batched.job.lookup.epoch
					}
					gotIns, gotDel := batched.ApplyOps(ops)
					wantIns, wantDel := opByOp(single, ops)
					if gotIns != wantIns || gotDel != wantDel {
						t.Fatalf("batch %d: ApplyOps = (%d, %d), op by op (%d, %d)", b, gotIns, gotDel, wantIns, wantDel)
					}
					chunks := uint32((len(ops) + applyChunk - 1) / applyChunk)
					if got := batched.job.lookup.epoch - epoch; got != chunks {
						t.Fatalf("batch %d: the lookup round ran %d times, want %d", b, got, chunks)
					}
					// The claim word keeps the last epoch's part count.
					last := len(ops) - int(chunks-1)*applyChunk
					if parts := batched.job.lookup.claim.Load() >> 16 & 0xffff; procs > 1 && last >= parallelMinOps && parts < 2 {
						t.Fatalf("batch %d: the lookup round ran in %d part at GOMAXPROCS %d", b, parts, procs)
					}
				}
				assertSameGraph(t, batched, single)
			})
		}
	}
}

// opByOp applies ops one InsertEdge or DeleteEdge at a time, returning
// ApplyOps's counts.
func opByOp(g *GraphTinker, ops []EdgeOp) (inserted, deleted int) {
	for _, op := range ops {
		if op.Del && g.DeleteEdge(op.Src, op.Dst) {
			deleted++
		} else if !op.Del && g.InsertEdge(op.Src, op.Dst, op.Weight) {
			inserted++
		}
	}
	return inserted, deleted
}

func fst(a, _ int) int { return a }

func opEdges(ops []EdgeOp) []Edge {
	out := make([]Edge, len(ops))
	for i, op := range ops {
		out[i] = op.Edge
	}
	return out
}

// assertSameGraph requires two instances to be indistinguishable: counters,
// edge count, id space, snapshot bytes, and clean invariants.
func assertSameGraph(t *testing.T, got, want *GraphTinker) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("Stats differ:\n got %+v\nwant %+v", g, w)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges %d, want %d", got.NumEdges(), want.NumEdges())
	}
	gm, gok := got.MaxVertexID()
	wm, wok := want.MaxVertexID()
	if gm != wm || gok != wok {
		t.Fatalf("MaxVertexID (%d, %v), want (%d, %v)", gm, gok, wm, wok)
	}
	var gs, ws bytes.Buffer
	if err := got.WriteSnapshot(&gs); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteSnapshot(&ws); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gs.Bytes(), ws.Bytes()) {
		t.Fatalf("snapshots differ (%d vs %d bytes)", gs.Len(), ws.Len())
	}
	if v := got.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestApplyScratchBounded pins the resolve scratch at one chunk whatever the
// batch size.
func TestApplyScratchBounded(t *testing.T) {
	g := MustNew(DefaultConfig())
	ops := make([]EdgeOp, 1<<18)
	for i := range ops {
		ops[i] = InsertOp(uint64(i%5000), uint64(i), 1)
	}
	if ins, _ := g.ApplyOps(ops); ins != len(ops) {
		t.Fatalf("inserted %d of %d", ins, len(ops))
	}
	if c := cap(g.job.dense); c > applyChunk {
		t.Fatalf("resolve scratch kept %d slots, want <= %d", c, applyChunk)
	}
	if g.job.src.ops != nil {
		t.Fatalf("the batch is still referenced after ApplyOps returned")
	}
}
