package engine

// The split engine's gather phase reads the sharded store through
// OutDegree / ForEachOutEdge / ForEachActivePartEdge / ForEachActiveEdge — all
// lock-free seqlock readers since the core migration. This test runs
// full engine iterations while a writer churns batches into the store:
// the gather must never block on the writer, observe a half-applied
// batch (each shard scan is a published point state), or trip the race
// detector. Results during churn are time-dependent; determinism is
// asserted after the writer quiesces.
import (
	"fmt"
	"sync"
	"testing"
)

func TestParallelEngineGatherDuringWrites(t *testing.T) {
	// The seed graph's vertex space passes splitMinWork, so the four shard
	// workers walk every full iteration concurrently while the writer runs.
	const vertices = 4 * splitMinWork
	seed := splitTestEdges(11)
	store := shardedStore(t, 4, seed)

	// Churn edges stay inside the seeded vertex id space: the engine sizes
	// its property arrays once per run, so the store's MaxVertexID must not
	// grow mid-iteration (the documented Resize contract).
	churn := randomTestEdges(4000, vertices, 23)

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
			}
			store.InsertBatch(churn)
			store.DeleteBatch(churn)
		}
	}()

	eng := shardNew(store, minProgram(), Options{Mode: FullProcessing})
	for round := 0; round < 4; round++ {
		// Convergence is time-dependent mid-churn; the run just must
		// complete, splitting as it goes.
		requireSplit(t, fmt.Sprintf("round %d", round), eng.RunFromScratch())
	}
	close(stop)
	wg.Wait()

	// Quiesced: the engine over the churned store must match the sequential
	// engine over the same final edge set, bit for bit.
	var final []Edge
	store.ForEachEdge(func(src, dst uint64, w float32) bool {
		final = append(final, Edge{Src: src, Dst: dst, Weight: w})
		return true
	})
	ref := oneWorker(newStore(t, final), minProgram(), Options{Mode: FullProcessing})
	ref.RunFromScratch()
	res := eng.RunFromScratch()
	if !res.Converged {
		t.Fatalf("quiesced run did not converge")
	}
	requireSplit(t, "quiesced run", res)
	for v := uint64(0); v < ref.NumVertices() && v < eng.NumVertices(); v++ {
		if eng.Value(v) != ref.Value(v) {
			t.Fatalf("val[%d] = %g, want %g", v, eng.Value(v), ref.Value(v))
		}
	}
}
