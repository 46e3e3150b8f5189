package core

import (
	"sync"
	"testing"

	"graphtinker/internal/metrics"
)

// TestInstrumentedUpdatePaths checks that an attached recorder sees every
// insert/find/delete with plausible probe distances.
func TestInstrumentedUpdatePaths(t *testing.T) {
	gt := MustNew(DefaultConfig())
	rec := metrics.NewUpdateRecorder()
	gt.Instrument(rec)
	if gt.Recorder() != rec {
		t.Fatalf("Recorder() did not return the attached recorder")
	}

	r := &testRand{s: 5}
	const n = 5000
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{uint64(r.intn(100)), uint64(r.intn(400)), 1})
	}
	inserted := gt.InsertBatch(edges)
	for _, e := range edges[:500] {
		gt.FindEdge(e.Src, e.Dst)
	}
	removed := gt.DeleteBatch(edges[:500])

	s := rec.Snapshot()
	if s.InsertLatencyNs.Count != n || s.InsertProbe.Count != n {
		t.Fatalf("insert samples = %d/%d, want %d", s.InsertLatencyNs.Count, s.InsertProbe.Count, n)
	}
	if s.FindLatencyNs.Count != 500 {
		t.Fatalf("find samples = %d, want 500", s.FindLatencyNs.Count)
	}
	if s.DeleteLatencyNs.Count != 500 {
		t.Fatalf("delete samples = %d, want 500", s.DeleteLatencyNs.Count)
	}
	if s.InsertProbe.Sum == 0 {
		t.Fatalf("insert probes recorded no cell inspections")
	}
	if removed == 0 || inserted == 0 {
		t.Fatalf("workload degenerate: %d inserted, %d removed", inserted, removed)
	}

	// Detach: no further samples.
	gt.Instrument(nil)
	gt.InsertEdge(9999, 9998, 1)
	if got := rec.Snapshot().InsertLatencyNs.Count; got != n {
		t.Fatalf("detached recorder still sampling: %d", got)
	}
}

// TestParallelSharedRecorder attaches one recorder across all shards and
// hammers it with concurrent batch updates plus mid-batch snapshot reads.
func TestParallelSharedRecorder(t *testing.T) {
	p, err := NewParallel(DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewUpdateRecorder()
	p.Instrument(rec)

	r := &testRand{s: 99}
	var batch []Edge
	for i := 0; i < 30000; i++ {
		batch = append(batch, Edge{uint64(r.intn(700)), uint64(r.intn(700)), 1})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rec.Snapshot()
			}
		}
	}()
	p.InsertBatch(batch)
	close(stop)
	wg.Wait()

	if got := rec.Snapshot().InsertLatencyNs.Count; got != uint64(len(batch)) {
		t.Fatalf("shared recorder saw %d inserts, want %d", got, len(batch))
	}
}

// TestInstrumentAttachDetachCycles cycles a shared recorder on and off a
// Parallel wrapper between quiesced batches (the documented contract: never
// while operations are in flight). The recorder must observe exactly the
// instrumented batches' operations — no samples from detached windows, and
// no double counting from the seqlock's catch-up replay applying each batch
// to the second replica. It runs once on a store nobody overlaps (SINGLE
// shards throughout) and once re-promoting every shard after each attach
// and detach, so clones are built both with and without a recorder to
// inherit and the small shards' demotions fall in between.
func TestInstrumentAttachDetachCycles(t *testing.T) {
	t.Run("single", func(t *testing.T) { instrumentCycles(t, func(*Parallel) {}) })
	t.Run("dual", func(t *testing.T) { instrumentCycles(t, promoteAll) })
}

func instrumentCycles(t *testing.T, afterInstrument func(*Parallel)) {
	p, err := NewParallel(testConfig(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewUpdateRecorder()

	var wantInserts, wantFinds, wantDeletes uint64
	next := uint64(0)
	batch := func(n int) []Edge {
		es := make([]Edge, n)
		for i := range es {
			es[i] = Edge{Src: next % 16, Dst: 1000 + next, Weight: 1}
			next++
		}
		return es
	}
	for cycle := 0; cycle < 40; cycle++ {
		p.Instrument(rec)
		afterInstrument(p)
		in := batch(25)
		p.InsertBatch(in)
		wantInserts += uint64(len(in))
		for _, e := range in[:5] {
			p.FindEdge(e.Src, e.Dst)
		}
		wantFinds += 5
		p.DeleteBatch(in[:10])
		wantDeletes += 10
		p.Instrument(nil)
		afterInstrument(p)
		// Detached window: none of this may be sampled.
		p.InsertBatch(batch(25))
		p.FindEdge(0, 0)
		p.DeleteBatch(in[10:15])
	}

	s := rec.Snapshot()
	if s.InsertLatencyNs.Count != wantInserts || s.InsertProbe.Count != wantInserts {
		t.Fatalf("insert samples = %d/%d, want exactly %d", s.InsertLatencyNs.Count, s.InsertProbe.Count, wantInserts)
	}
	if s.FindLatencyNs.Count != wantFinds {
		t.Fatalf("find samples = %d, want exactly %d", s.FindLatencyNs.Count, wantFinds)
	}
	if s.DeleteLatencyNs.Count != wantDeletes {
		t.Fatalf("delete samples = %d, want exactly %d", s.DeleteLatencyNs.Count, wantDeletes)
	}
}
