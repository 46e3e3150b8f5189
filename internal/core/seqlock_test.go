package core

// Tests for the seqlock read path: the version/pin protocol itself, the
// panic-safety of the reader surface (a panicking callback must not leak
// a pin and wedge writers — the bug the old non-deferred RLock loops had),
// and the exactly-once stats contract across a shard's replica pair.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardCtlPublishFlipsActive exercises the version protocol on one
// shardCtl directly. A fresh shard is SINGLE: a write applies in place and
// leaves readers on the same replica index. Once promoted it is DUAL:
// publishing moves readers to the shadow replica, the version is even
// between writes, both replicas reconverge, and a held pin stalls only the
// catch-up replay onto the pinned replica.
func TestShardCtlPublishFlipsActive(t *testing.T) {
	var sc shardCtl
	sc.init(testConfig(t))

	g0, idx0 := sc.pinRead()
	if g0 != sc.quiescedInstance() {
		t.Fatalf("pinRead returned a replica the version does not select")
	}
	sc.unpin(idx0)

	before := sc.activeIdx()
	if n, _ := sc.applyOpsLocked([]EdgeOp{InsertOp(1, 2, 1), InsertOp(1, 3, 1)}); n != 2 {
		t.Fatalf("applyOpsLocked inserted %d, want 2", n)
	}
	if after := sc.activeIdx(); after != before || sc.inst[before^1] != nil || sc.statsSnapshot().Replicas != 1 {
		t.Fatalf("unobserved write left SINGLE mode: active %d -> %d, shadow %v", before, after, sc.inst[before^1])
	}
	if s := sc.seq.Load(); s&1 != 0 {
		t.Fatalf("version left odd (%d) after an in-place apply", s)
	}

	sc.promoteLocked()
	if n, _ := sc.applyOpsLocked([]EdgeOp{InsertOp(1, 4, 1)}); n != 1 {
		t.Fatalf("applyOpsLocked inserted %d, want 1", n)
	}
	if after := sc.activeIdx(); after == before {
		t.Fatalf("publish did not flip the active replica (still %d)", after)
	}
	if s := sc.seq.Load(); s&1 != 0 {
		t.Fatalf("version left odd (%d) after publish", s)
	}
	for i := 0; i < 2; i++ {
		if n := sc.inst[i].NumEdges(); n != 3 {
			t.Fatalf("replica %d holds %d edges after reconvergence, want 3", i, n)
		}
	}

	// A held pin blocks reconvergence onto the pinned replica: the next
	// publish must wait in drain until the pin is released.
	g, idx := sc.pinRead()
	released := make(chan struct{})
	done := make(chan struct{})
	go func() {
		sc.applyOpsLocked([]EdgeOp{InsertOp(2, 3, 1)})
		close(done)
	}()
	// The writer applies to the shadow and publishes immediately — only the
	// catch-up replay onto our pinned replica must wait.
	time.Sleep(10 * time.Millisecond)
	if n := g.NumEdges(); n != 3 {
		t.Fatalf("pinned replica mutated under a held pin: %d edges", n)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(released)
		sc.unpin(idx)
	}()
	<-done
	select {
	case <-released:
	default:
		t.Fatalf("writer finished while a reader pin was still held")
	}
}

// TestReaderPanicDoesNotWedgeWriters panics inside every scan-shaped
// reader callback and then checks writers still make progress. Before the
// seqlock the scan loops held non-deferred RLocks, so a panicking reader
// leaked the shard lock and every later writer deadlocked; the pin release
// is deferred exactly to keep this recoverable.
func TestReaderPanicDoesNotWedgeWriters(t *testing.T) {
	p, err := NewParallel(testConfig(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var batch []Edge
	for i := 0; i < 2000; i++ {
		batch = append(batch, Edge{uint64(i % 50), uint64(i + 100), 1})
	}
	p.InsertBatch(batch)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: callback panic did not propagate", name)
			}
		}()
		f()
	}
	mustPanic("ForEachEdge", func() {
		p.ForEachEdge(func(src, dst uint64, w float32) bool { panic("reader exploded") })
	})
	mustPanic("ForEachActiveShardEdge", func() {
		p.ForEachActiveShardEdge(p.ShardOf(batch[0].Src), nil, func(src, dst uint64, w float32) bool { panic("reader exploded") })
	})
	mustPanic("ForEachOutEdge", func() {
		p.ForEachOutEdge(batch[0].Src, func(dst uint64, w float32) bool { panic("reader exploded") })
	})

	// Every pin the panicking readers took must have been released: a
	// leaked pin would stall the next batch forever in the reader drain.
	done := make(chan int, 1)
	go func() { done <- p.InsertBatch([]Edge{{999, 9999, 1}}) }()
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("post-panic InsertBatch inserted %d, want 1", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("InsertBatch wedged after reader panic (leaked pin)")
	}
	if _, ok := p.FindEdge(999, 9999); !ok {
		t.Fatal("post-panic write not visible to readers")
	}
}

// TestParallelFindEdgeStatsMonotonicUnderWrites hammers FindEdge from
// concurrent readers while batches insert and delete, asserting that (a)
// successive Stats snapshots never go backwards and (b) after quiescing,
// Finds equals the number of FindEdge calls exactly. PR 1 fixed a counter
// race by making the stats atomic; the seqlock's replica pair must neither
// reintroduce the race nor double-count through the catch-up replay.
func TestParallelFindEdgeStatsMonotonicUnderWrites(t *testing.T) {
	p, err := NewParallel(testConfig(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	r := &testRand{s: 271}
	var seedEdges, churn []Edge
	for i := 0; i < 8000; i++ {
		seedEdges = append(seedEdges, Edge{uint64(r.intn(300)), uint64(r.intn(900)), 1})
	}
	for i := 0; i < 4000; i++ {
		churn = append(churn, Edge{uint64(r.intn(300)), uint64(100000 + r.intn(900)), 1})
	}
	p.InsertBatch(seedEdges)

	stop := make(chan struct{})
	var finds atomic.Uint64
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var prev Stats
			for i := k; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e := seedEdges[i%len(seedEdges)]
				p.FindEdge(e.Src, e.Dst)
				finds.Add(1)
				if i%64 == k {
					cur := p.Stats()
					if cur.Finds < prev.Finds || cur.Inserts < prev.Inserts ||
						cur.Deletes < prev.Deletes || cur.CellsInspected < prev.CellsInspected ||
						cur.WorkblocksRetrieved < prev.WorkblocksRetrieved {
						panic(fmt.Sprintf("stats snapshot went backwards: %+v -> %+v", prev, cur))
					}
					prev = cur
				}
			}
		}(k)
	}
	for round := 0; round < 6; round++ {
		p.InsertBatch(churn)
		p.DeleteBatch(churn)
	}
	close(stop)
	wg.Wait()

	if got, want := p.Stats().Finds, finds.Load(); got != want {
		t.Fatalf("Finds counter = %d, want exactly %d calls (replica pair double- or under-counting)", got, want)
	}
}

// FuzzSeqlockInterleave fuzzes reader/writer interleavings: a writer
// applies tagged disjoint batches (inserts, then deletes) while readers
// scan shards and assert every observed state is all-or-nothing per batch.
// The fuzzer varies the workload shape and scheduling pressure; any torn
// read the seqlock lets through trips the oracle.
func FuzzSeqlockInterleave(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2))
	f.Add(uint64(42), uint8(7), uint8(3))
	f.Add(uint64(0xdead), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nb, nr uint8) {
		const shards = 2
		batches := int(nb%6) + 2
		readers := int(nr%3) + 1
		batchSize := 64 + int(seed%64)

		p, err := NewParallel(testConfig(t), shards)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()

		all := make([][]Edge, batches)
		want := make([][]uint64, batches)
		r := &testRand{s: seed | 1}
		for k := range all {
			want[k] = make([]uint64, shards)
			for j := 0; j < batchSize; j++ {
				e := Edge{
					Src:    uint64(r.intn(60)),
					Dst:    uint64(k*batchSize + j + 1000), // globally unique => batches disjoint
					Weight: float32(k + 1),
				}
				all[k] = append(all[k], e)
				want[k][p.ShardOf(e.Src)]++
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for rd := 0; rd < readers; rd++ {
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
					for i := range counts {
						counts[i] = 0
					}
					p.ForEachActiveShardEdge(s, nil, func(src, dst uint64, w float32) bool {
						k := int(w) - 1
						if k < 0 || k >= batches {
							panic("scan observed an edge with an unknown batch tag")
						}
						counts[k]++
						return true
					})
					for k := range counts {
						if counts[k] != 0 && counts[k] != want[k][s] {
							panic(fmt.Sprintf("shard %d: torn read: batch %d visible with %d of %d edges",
								s, k, counts[k], want[k][s]))
						}
					}
				}
			}(rd % shards)
		}
		for k := 0; k < batches; k++ {
			p.InsertBatch(all[k])
		}
		for k := 0; k < batches; k++ {
			p.DeleteBatch(all[k])
		}
		close(stop)
		wg.Wait()
		if n := p.NumEdges(); n != 0 {
			t.Fatalf("differential end state: %d edges left, want 0", n)
		}
	})
}

// TestParallelStatsExactlyOnceAcrossMigrations extends the stats-monotonic
// family to the adaptive representation: with tiny thresholds, batches push
// every vertex across the promote boundary and back down while readers
// snapshot Stats concurrently. The replica-summed Promotions/Demotions must
// (a) never go backwards mid-churn and (b) at quiescence equal exactly the
// counts of a serial instance fed the same op stream — in DUAL mode each
// migration runs on both replicas of a shard (shadow apply plus catch-up
// replay) but must be counted once, and the clone a promotion builds must
// be counted zero times. The first round runs with nobody reading (SINGLE,
// one apply), the second is promoted under held pins, the rest run beside
// readers.
func TestParallelStatsExactlyOnceAcrossMigrations(t *testing.T) {
	cfg := tinyThresholds(DefaultConfig()) // migrations are the subject regardless of GT_REPR
	p, err := NewParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	serial := MustNew(cfg)

	const vertices = 32
	var up, down []Edge
	for v := uint64(0); v < vertices; v++ {
		// Degree climbs to 30 (slice→cuckoo at 9)...
		for d := uint64(1); d <= 30; d++ {
			up = append(up, Edge{v, d, 1})
		}
		// ...then falls to 2 (cuckoo→slice at 4).
		for d := uint64(1); d <= 28; d++ {
			down = append(down, Edge{v, d, 0})
		}
	}

	const rounds = 5
	p.InsertBatch(up)
	p.DeleteBatch(down)
	if st := p.Stats(); st.ShadowBuilds != 0 || st.Replicas != 2 {
		t.Fatalf("unobserved round left SINGLE mode: %d builds, %d replicas over 2 shards", st.ShadowBuilds, st.Replicas)
	}
	writeUnderPins(t, p, []int{0, 1}, func() { p.InsertBatch(up) })
	if st := p.Stats(); st.ShadowBuilds != 2 || st.Replicas != 4 {
		t.Fatalf("pinned round: %d builds, %d replicas over 2 shards, want 2 and 4", st.ShadowBuilds, st.Replicas)
	}
	p.DeleteBatch(down)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var prev Stats
			for i := k; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p.FindEdge(uint64(i%vertices), uint64(i%30)+1)
				if i%32 == k {
					cur := p.Stats()
					if cur.Promotions < prev.Promotions || cur.Demotions < prev.Demotions ||
						cur.Inserts < prev.Inserts || cur.Deletes < prev.Deletes {
						panic(fmt.Sprintf("migration stats went backwards: %+v -> %+v", prev, cur))
					}
					prev = cur
				}
			}
		}(k)
	}
	for round := 2; round < rounds; round++ {
		p.InsertBatch(up)
		p.DeleteBatch(down)
	}
	close(stop)
	wg.Wait()
	for round := 0; round < rounds; round++ {
		serial.InsertBatch(up)
		serial.DeleteBatch(down)
	}

	ps, ss := p.Stats(), serial.Stats()
	if ps.Promotions != ss.Promotions || ps.Demotions != ss.Demotions {
		t.Fatalf("migrations not exactly-once: parallel %d/%d promotions/demotions, serial %d/%d",
			ps.Promotions, ps.Demotions, ss.Promotions, ss.Demotions)
	}
	if ps.Inserts != ss.Inserts || ps.Deletes != ss.Deletes || ps.Updates != ss.Updates {
		t.Fatalf("mutation counters diverged from serial: %d/%d/%d vs %d/%d/%d",
			ps.Inserts, ps.Deletes, ps.Updates, ss.Inserts, ss.Deletes, ss.Updates)
	}
	// The workload genuinely migrated: one promotion and one demotion per
	// vertex per round, every round (degree 2 re-climbs through the
	// boundary).
	if want := uint64(vertices * rounds); ps.Promotions != want || ps.Demotions != want {
		t.Fatalf("promotions/demotions = %d/%d, want %d each", ps.Promotions, ps.Demotions, want)
	}
}
