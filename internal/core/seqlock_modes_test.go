package core

// Tests for the seqlock's mode machine (seqlock.go): a shard is SINGLE
// until a reader overlaps a writer, DUAL afterwards, and SINGLE again once
// readers have stayed away for as many ops as the shard holds edges.
// Replicas of a promoted shard are logically equal, not structurally —
// nothing here compares iteration order across a flip.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphtinker/internal/testutil"
)

// modeDeadline bounds every wait in this file; a protocol deadlock fails
// the test instead of the package timeout.
const modeDeadline = 60 * time.Second

// liveReplicas returns the shard's non-nil replica slots. Quiesced callers
// only.
func liveReplicas(sc *shardCtl) []*GraphTinker {
	var live []*GraphTinker
	for _, g := range sc.inst {
		if g != nil {
			live = append(live, g)
		}
	}
	return live
}

// checkReplicas sweeps every live replica of a quiesced store: invariants,
// the partition, agreement between ShardStats' replica count and the slots,
// and — for a DUAL shard — logical equality of the pair.
func checkReplicas(t *testing.T, p *Parallel) {
	t.Helper()
	stats := p.ShardStats()
	for s := range p.sc {
		live := liveReplicas(&p.sc[s])
		if len(live) != stats[s].Replicas {
			t.Fatalf("shard %d: %d live replicas, ShardStats reports %d", s, len(live), stats[s].Replicas)
		}
		if want := int(stats[s].ShadowBuilds-stats[s].ShadowDrops) + 1; len(live) != want {
			t.Fatalf("shard %d: %d live replicas after %d builds and %d drops", s, len(live), stats[s].ShadowBuilds, stats[s].ShadowDrops)
		}
		var first map[[2]uint64]float32
		for r, g := range live {
			if v := g.CheckInvariants(); len(v) != 0 {
				t.Fatalf("shard %d replica %d invariants: %v", s, r, v)
			}
			edges := make(map[[2]uint64]float32)
			g.ForEachEdge(func(src, dst uint64, w float32) bool {
				if p.ShardOf(src) != s {
					t.Fatalf("shard %d replica %d holds edge (%d,%d) owned by shard %d", s, r, src, dst, p.ShardOf(src))
				}
				edges[[2]uint64{src, dst}] = w
				return true
			})
			if uint64(len(edges)) != g.NumEdges() {
				t.Fatalf("shard %d replica %d walks %d edges, NumEdges %d", s, r, len(edges), g.NumEdges())
			}
			if first == nil {
				first = edges
				continue
			}
			if len(edges) != len(first) {
				t.Fatalf("shard %d: replicas hold %d and %d edges", s, len(first), len(edges))
			}
			for k, w := range first {
				if edges[k] != w {
					t.Fatalf("shard %d: replicas disagree on edge %v: %g vs %g", s, k, w, edges[k])
				}
			}
		}
	}
}

// writeUnderPins runs write — which must touch every listed shard — while
// a reader pin is held on each of them, and releases the pins once every
// listed shard is DUAL: a writer that finds its single replica pinned has
// no way forward but promotion, so this is the deterministic way in.
func writeUnderPins(t *testing.T, p *Parallel, shards []int, write func()) {
	t.Helper()
	idx := make([]uint32, len(shards))
	for i, s := range shards {
		_, idx[i] = p.sc[s].pinRead()
	}
	release := func() {
		for i, s := range shards {
			p.sc[s].unpin(idx[i])
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		write()
	}()
	deadline := time.Now().Add(modeDeadline)
	for _, s := range shards {
		for p.ShardStats()[s].Replicas != 2 {
			if time.Now().After(deadline) {
				release()
				t.Fatalf("shard %d not promoted by a write that found it pinned", s)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	release()
	select {
	case <-done:
	case <-time.After(modeDeadline):
		t.Fatal("write did not finish after the pins were released")
	}
}

// sourceOn returns a source id the store routes to the given shard.
func sourceOn(p *Parallel, shard int) uint64 {
	for src := uint64(0); ; src++ {
		if p.ShardOf(src) == shard {
			return src
		}
	}
}

// promoteAll puts every shard in DUAL mode directly.
func promoteAll(p *Parallel) {
	for i := range p.sc {
		p.wmu[i].Lock()
		if !p.sc[i].dual.Load() {
			p.sc[i].promoteLocked()
		}
		p.wmu[i].Unlock()
	}
}

// modeDriver feeds one op stream to a Parallel and the reference oracle.
type modeDriver struct {
	t   *testing.T
	p   *Parallel
	ref *refGraph
	r   *testRand
}

// batch applies n mixed ops over a small id space through ApplyOps and
// checks the effect counts against the oracle's.
func (d *modeDriver) batch(n int) {
	d.t.Helper()
	ops := make([]EdgeOp, 0, n)
	var wantIns, wantDel int
	for i := 0; i < n; i++ {
		src, dst := uint64(d.r.intn(40)), uint64(d.r.intn(400))
		if d.r.intn(4) == 0 {
			ops = append(ops, DeleteOp(src, dst))
			if d.ref.delete(src, dst) {
				wantDel++
			}
		} else {
			w := float32(d.r.intn(1000))
			ops = append(ops, InsertOp(src, dst, w))
			if d.ref.insert(src, dst, w) {
				wantIns++
			}
		}
	}
	if ins, del := d.p.ApplyOps(ops); ins != wantIns || del != wantDel {
		d.t.Fatalf("ApplyOps changed %d/%d, oracle %d/%d", ins, del, wantIns, wantDel)
	}
}

// expect asserts every shard's mode and exact transition counts, then the
// full observable state and every live replica. It reads the store, so it
// counts as a reader entry.
func (d *modeDriver) expect(stage string, replicas int, builds, drops uint64) {
	d.t.Helper()
	for s, st := range d.p.ShardStats() {
		if st.Replicas != replicas || st.ShadowBuilds != builds || st.ShadowDrops != drops {
			d.t.Fatalf("%s: shard %d has %d replicas after %d builds and %d drops, want %d after %d and %d",
				stage, s, st.Replicas, st.ShadowBuilds, st.ShadowDrops, replicas, builds, drops)
		}
	}
	if st := d.p.Stats(); st.ShadowBuilds != builds*uint64(d.p.Shards()) || st.Replicas != replicas*d.p.Shards() {
		d.t.Fatalf("%s: Stats sums %d builds and %d replicas over %d shards", stage, st.ShadowBuilds, st.Replicas, d.p.Shards())
	}
	testutil.CheckAgainstRef(d.t, d.p, d.ref.RefGraph)
	checkReplicas(d.t, d.p)
}

// untilSingle applies unobserved batches until every shard has dropped its
// second replica, checking the ski-rental rule's two sides: not before a
// shard's writer has applied as many ops as it holds edges, and no later
// than one batch past that.
func (d *modeDriver) untilSingle(batchOps int) {
	d.t.Helper()
	var maxEdges uint64
	for s := range d.p.sc {
		maxEdges = max(maxEdges, d.p.Shard(s).NumEdges()+uint64(batchOps))
	}
	d.batch(batchOps) // far fewer ops than any shard holds edges
	for s, st := range d.p.ShardStats() {
		if st.Replicas != 2 {
			d.t.Fatalf("shard %d dropped its replica after %d unobserved ops with ~%d edges", s, batchOps, d.p.Shard(s).NumEdges())
		}
	}
	// Every shard sees at most batchOps ops per batch, so maxEdges/batchOps
	// batches is a floor; each sees a fair share of them, so a few times
	// that is a generous ceiling.
	for i := 0; i < 8*d.p.Shards()*(int(maxEdges)/batchOps+2); i++ {
		d.batch(batchOps)
		single := 0
		for _, st := range d.p.ShardStats() {
			if st.Replicas == 1 {
				single++
			}
		}
		if single == d.p.Shards() {
			return
		}
	}
	d.t.Fatalf("shards still DUAL after many times their edge count in unobserved ops: %+v", d.p.ShardStats())
}

// TestSeqlockModeMachineDifferential walks a store through SINGLE -> DUAL
// -> SINGLE -> DUAL against the reference oracle, with readers starting and
// stopping, asserting the mode and the exact build/drop counts at every
// stage.
func TestSeqlockModeMachineDifferential(t *testing.T) {
	p, err := NewParallel(testConfig(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	d := &modeDriver{t: t, p: p, ref: newRefGraph(), r: &testRand{s: 2019}}
	all := []int{0, 1}
	const batchOps = 64

	// Reads between batches are not overlaps: the store stays SINGLE.
	for i := 0; i < 40; i++ {
		d.batch(batchOps)
		if i%8 == 0 {
			d.expect("quiet store", 1, 0, 0)
		}
	}
	d.expect("quiet store", 1, 0, 0)

	// A write that finds every shard pinned promotes every shard, once.
	writeUnderPins(t, p, all, func() { d.batch(batchOps) })
	d.expect("first overlap", 2, 1, 0)

	// While readers keep coming the shards stay DUAL. The free-running
	// readers exercise the pair under the race detector; the read between
	// batches is the entry the writer is guaranteed to observe.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := range all {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p.FindEdge(uint64(i%40), uint64(i%400))
				if i%16 == 0 {
					seen := make(map[[2]uint64]struct{})
					p.ForEachActiveShardEdge(s, nil, func(src, dst uint64, w float32) bool {
						k := [2]uint64{src, dst}
						if _, dup := seen[k]; dup {
							panic(fmt.Sprintf("shard %d scan yielded edge %v twice", s, k))
						}
						seen[k] = struct{}{}
						return true
					})
				}
			}
		}(s)
	}
	for i := 0; i < 60; i++ {
		d.batch(batchOps)
		for _, s := range all {
			p.OutDegree(sourceOn(p, s))
		}
	}
	close(stop)
	wg.Wait()
	d.expect("readers present", 2, 1, 0)

	// Readers gone: each shard drops its second replica, once.
	d.untilSingle(batchOps)
	d.expect("readers gone", 1, 1, 1)

	// And back: the clone is rebuilt from the replica that survived.
	writeUnderPins(t, p, all, func() { d.batch(batchOps) })
	d.expect("second overlap", 2, 2, 1)
	for i := 0; i < 4; i++ {
		d.batch(batchOps) // flips readers across both replicas
		d.expect("after second overlap", 2, 2, 1)
	}
}

// TestSeqlockSurfaceInBothModes runs the rest of the shard-level surface —
// AnalyzeProbes, Shard, WriteSnapshot, ResetStats — against the same store
// in SINGLE and in DUAL mode.
func TestSeqlockSurfaceInBothModes(t *testing.T) {
	cfg := testConfig(t)
	p, err := NewParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.InsertBatch(benchEdges(6000, 300, 21))
	want := edgesOf(p)

	for _, mode := range []string{"SINGLE", "DUAL"} {
		if mode == "DUAL" {
			promoteAll(p)
			p.InsertEdge(1, 1, 1) // one shard's readers now sit on its clone
			want[[2]uint64{1, 1}] = 1
		}
		var probed, sharded uint64
		for _, c := range p.AnalyzeProbes().ByGeneration {
			probed += c
		}
		for s := 0; s < p.Shards(); s++ {
			sharded += p.Shard(s).NumEdges()
		}
		if n := p.NumEdges(); sharded != n || probed > n || (cfg.Repr == ReprBlocks && probed != n) {
			t.Fatalf("%s: NumEdges %d, Shard(i) sum %d, AnalyzeProbes covers %d", mode, n, sharded, probed)
		}
		var buf bytes.Buffer
		if err := p.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		back, err := ReadParallelSnapshot(&buf, nil)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got := edgesOf(back)
		if len(got) != len(want) {
			t.Fatalf("%s: snapshot round trip holds %d edges, want %d", mode, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s: snapshot round trip has edge %v at %g, want %g", mode, k, got[k], w)
			}
		}
		checkReplicas(t, p)
		p.FindEdge(1, 2)
		p.ResetStats()
		st := p.Stats()
		if wantReplicas := map[string]int{"SINGLE": 3, "DUAL": 6}[mode]; st.Replicas != wantReplicas {
			t.Fatalf("%s: %d replicas over 3 shards, want %d", mode, st.Replicas, wantReplicas)
		}
		st.Replicas = 0
		if st != (Stats{}) {
			t.Fatalf("%s: counters after ResetStats: %+v", mode, st)
		}
	}
}

// TestSeqlockTornReadAcrossModes holds TestParallelTornReadDifferential's
// property — a shard scan sees each tagged batch whole or not at all —
// where that test cannot reach on its own: scans that start against SINGLE
// shards (and so land inside in-place applies), the promotions they cause,
// and the demotions between rounds.
func TestSeqlockTornReadAcrossModes(t *testing.T) {
	const (
		shards    = 2
		rounds    = 6
		batches   = 8
		batchSize = 600
	)
	p, err := NewParallel(testConfig(t), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	all := make([][]Edge, batches)
	want := make([][]uint64, batches)
	for k := range all {
		want[k] = make([]uint64, shards)
		for j := 0; j < batchSize; j++ {
			e := Edge{Src: uint64((k*batchSize + j) % 97), Dst: uint64(k*batchSize + j + 1000), Weight: float32(k + 1)}
			all[k] = append(all[k], e)
			want[k][p.ShardOf(e.Src)]++
		}
	}
	scan := func(s int, counts []uint64) error {
		for i := range counts {
			counts[i] = 0
		}
		p.ForEachActiveShardEdge(s, nil, func(src, dst uint64, w float32) bool {
			counts[int(w)-1]++
			return true
		})
		for k := range counts {
			if counts[k] != 0 && counts[k] != want[k][s] {
				return fmt.Errorf("shard %d: torn read: batch %d visible with %d of %d edges", s, k, counts[k], want[k][s])
			}
		}
		return nil
	}

	var builds, drops uint64
	for round := 0; round < rounds; round++ {
		stop := make(chan struct{})
		errs := make(chan error, shards)
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				counts := make([]uint64, batches)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := scan(s, counts); err != nil {
						errs <- err
						return
					}
				}
			}(s)
		}
		for k := range all {
			p.InsertBatch(all[k])
		}
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Nobody is reading now: the deletes (and, if they do not reach the
		// edge count, the re-inserts of the next round) demote the shards
		// the readers promoted, so later rounds start SINGLE again.
		for k := range all {
			p.DeleteBatch(all[k])
		}
		if n := p.NumEdges(); n != 0 {
			t.Fatalf("round %d: %d edges left, want 0", round, n)
		}
		checkReplicas(t, p)
		st := p.Stats()
		builds, drops = st.ShadowBuilds, st.ShadowDrops
	}
	t.Logf("%d promotions, %d demotions over %d rounds", builds, drops, rounds)
}

// TestSeqlockNestedPinNoDeadlock pins obligation (1): a writer never waits
// on a pin with the version odd. A ForEachOutEdge callback queries its own
// shard while a writer arrives at the (SINGLE, pinned) shard — first in
// lock step, so the writer is known to have come and backed off before the
// nested query is issued, then free-running so the nested query also lands
// inside the writer's short odd window.
func TestSeqlockNestedPinNoDeadlock(t *testing.T) {
	p, err := NewParallel(testConfig(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	const src = 7
	shard := p.ShardOf(src)
	for d := uint64(0); d < 50; d++ {
		p.InsertEdge(src, d, 1)
	}

	inside, written := make(chan struct{}), make(chan struct{})
	walked := make(chan int, 1)
	go func() {
		n, first := 0, true
		p.ForEachOutEdge(src, func(dst uint64, w float32) bool {
			if first {
				first = false
				close(inside)
				// Hold the outer pin until the writer has met it.
				for p.ShardStats()[shard].Replicas != 2 {
					time.Sleep(50 * time.Microsecond)
				}
			}
			if _, ok := p.FindEdge(src, dst); ok { // nested pin, same shard
				n++
			}
			return true
		})
		walked <- n
	}()
	<-inside
	go func() {
		defer close(written)
		p.InsertBatch([]Edge{{src, 1000, 1}, {src, 1001, 1}})
	}()
	select {
	case n := <-walked:
		if n != 50 {
			t.Fatalf("nested queries found %d of the 50 edges the outer walk yielded", n)
		}
	case <-time.After(modeDeadline):
		t.Fatal("nested query deadlocked against a writer that found the shard pinned")
	}
	select {
	case <-written:
	case <-time.After(modeDeadline):
		t.Fatal("writer still blocked after the reader left")
	}
	if deg := p.OutDegree(src); deg != 52 {
		t.Fatalf("degree %d after the write, want 52", deg)
	}

	// Free-running: fresh SINGLE stores, nested readers against writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for iter := 0; iter < 200; iter++ {
			q, err := NewParallel(testConfig(t), 1)
			if err != nil {
				panic(err)
			}
			for d := uint64(0); d < 8; d++ {
				q.InsertEdge(src, d, 1)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					q.ForEachOutEdge(src, func(dst uint64, w float32) bool {
						q.FindEdge(src, dst)
						return true
					})
				}
			}()
			go func() {
				defer wg.Done()
				for i := uint64(0); i < 50; i++ {
					q.InsertEdge(src, 100+i, 1)
				}
			}()
			wg.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(modeDeadline):
		t.Fatal("nested readers and writers deadlocked")
	}
}

// TestSeqlockSnapshotFenceNoDeadlock runs WriteSnapshot's all-shard pin
// fence against InsertBatch: a writer that meets the fence must promote
// and wait in the DUAL drain, where the fence's own release frees it.
func TestSeqlockSnapshotFenceNoDeadlock(t *testing.T) {
	p, err := NewParallel(testConfig(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	edges := benchEdges(20000, 4096, 11)
	p.InsertBatch(edges[:10000])

	done := make(chan error, 2)
	go func() {
		for i := 0; i < 20; i++ {
			if err := p.WriteSnapshot(io.Discard); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 20; i++ {
			p.InsertBatch(edges[10000+i*500 : 10000+(i+1)*500])
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(modeDeadline):
			t.Fatal("WriteSnapshot and InsertBatch deadlocked")
		}
	}
	checkReplicas(t, p)
}

// TestSeqlockLongPinHoldsUpNoOtherShard pins the batch path's liveness
// at GOMAXPROCS 1, where the caller applies a batch's shards one after
// another: a reader pinning the first DUAL shard's replica across a batch
// holds up the publication of no shard, that one included, and the batch
// returns once the pin is released, with both replicas of every shard
// caught up.
func TestSeqlockLongPinHoldsUpNoOtherShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards = 4
	p, err := NewParallel(testConfig(t), shards)
	if err != nil {
		t.Fatal(err)
	}
	promoteAll(p)
	src := make([]uint64, shards)
	batch := make([]Edge, shards)
	for s := range src {
		src[s] = sourceOn(p, s)
		batch[s] = Edge{Src: src[s], Dst: 1, Weight: 1}
	}

	_, idx := p.sc[0].pinRead()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.InsertBatch(batch)
	}()
	deadline := time.Now().Add(modeDeadline)
	for s := range src {
		for _, ok := p.FindEdge(src[s], 1); !ok; _, ok = p.FindEdge(src[s], 1) {
			if time.Now().After(deadline) {
				p.sc[0].unpin(idx)
				t.Fatalf("shard %d's edge not published while shard 0 was pinned", s)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	select {
	case <-done:
		p.sc[0].unpin(idx)
		t.Fatal("batch returned before shard 0's pinned replica caught up")
	default:
	}
	p.sc[0].unpin(idx)
	select {
	case <-done:
	case <-time.After(modeDeadline):
		t.Fatal("batch did not finish after the pin was released")
	}
	checkReplicas(t, p)
	if n := p.NumEdges(); n != shards {
		t.Fatalf("NumEdges = %d, want %d", n, shards)
	}
}

// TestSeqlockReaderWaitsOncePerPromotion pins obligation (2): with a writer
// streaming batches into SINGLE shards and one reader per shard, a read can
// find the version odd past the publication window only while the shard is
// SINGLE, and each such read is answered by a promotion — so waits never
// outnumber promotions.
func TestSeqlockReaderWaitsOncePerPromotion(t *testing.T) {
	const shards = 2
	p, err := NewParallel(testConfig(t), shards)
	if err != nil {
		t.Fatal(err)
	}
	edges := benchEdges(60000, 2048, 5)
	p.InsertBatch(edges[:20000])

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(src uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p.FindEdge(src, i)
			}
		}(sourceOn(p, s))
	}
	for lo := 20000; lo < len(edges); lo += 1000 {
		p.InsertBatch(edges[lo : lo+1000])
	}
	close(stop)
	wg.Wait()
	// A wait recorded during the last in-place apply is answered by the
	// next write; make sure there is one.
	p.InsertBatch(edges[:1000])

	for s, st := range p.ShardStats() {
		waits := p.sc[s].overlaps.Load()
		if waits > st.ShadowBuilds {
			t.Errorf("shard %d: %d reads waited out an apply, only %d promotions", s, waits, st.ShadowBuilds)
		}
		t.Logf("shard %d: %d waits, %d promotions, %d demotions", s, waits, st.ShadowBuilds, st.ShadowDrops)
	}
	checkReplicas(t, p)
}

// FuzzSeqlockModes drives the mode machine from fuzzed bytes: each 3-byte
// group is an op, or switches a free-running reader on or off, or makes the
// next write find its shard pinned. The end state must match the oracle,
// every live replica must pass the invariant sweep, and the build/drop
// counts must account for the replicas present.
func FuzzSeqlockModes(f *testing.F) {
	f.Add([]byte{0, 1, 2, 4, 0, 0, 1, 3, 9, 5, 0, 0, 2, 3, 9, 1, 1, 1})
	f.Add([]byte{6, 0, 0, 0, 1, 1, 0, 2, 2, 2, 1, 1, 6, 0, 0, 1, 5, 5, 1, 6, 6})
	f.Add([]byte{4, 0, 0, 0, 7, 7, 5, 0, 0, 0, 8, 8, 4, 0, 0, 2, 7, 7, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		const shards = 2
		p, err := NewParallel(testConfig(t), shards)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefGraph()

		var stop chan struct{}
		var wg sync.WaitGroup
		readerOff := func() {
			if stop != nil {
				close(stop)
				wg.Wait()
				stop = nil
			}
		}
		defer readerOff()
		readerOn := func() {
			if stop != nil {
				return
			}
			stop = make(chan struct{})
			wg.Add(1)
			go func(stop <-chan struct{}) {
				defer wg.Done()
				for i := uint64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					p.FindEdge(i%32, i%64)
					p.ForEachOutEdge(i%32, func(uint64, float32) bool { return true })
				}
			}(stop)
		}

		pinNext := false
		for i := 0; i+2 < len(data); i += 3 {
			op, s, dst := data[i]%7, uint64(data[i+1]%32), uint64(data[i+2]%64)
			var ops []EdgeOp
			switch op {
			case 0, 1, 2: // insert a run: degrees cross the tiny thresholds
				for k := uint64(0); k <= uint64(op)*4; k++ {
					ops = append(ops, InsertOp(s, dst+k, float32(data[i])+1))
				}
			case 3:
				ops = append(ops, DeleteOp(s, dst))
			case 4:
				readerOn()
				continue
			case 5:
				readerOff()
				continue
			case 6:
				pinNext = true
				continue
			}
			var wantIns, wantDel int
			for _, o := range ops {
				if o.Del {
					if ref.delete(o.Src, o.Dst) {
						wantDel++
					}
				} else if ref.insert(o.Src, o.Dst, o.Weight) {
					wantIns++
				}
			}
			write := func() {
				if ins, del := p.ApplyOps(ops); ins != wantIns || del != wantDel {
					panic(fmt.Sprintf("op group %d changed %d/%d, oracle %d/%d", i, ins, del, wantIns, wantDel))
				}
			}
			if pinNext {
				pinNext = false
				writeUnderPins(t, p, []int{p.ShardOf(s)}, write)
			} else {
				write()
			}
		}
		readerOff()
		testutil.CheckAgainstRef(t, p, ref.RefGraph)
		checkReplicas(t, p)
	})
}
