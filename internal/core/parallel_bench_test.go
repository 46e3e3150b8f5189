package core

import "testing"

// BenchmarkParallelInsertSteady measures the steady-state sharded batch
// path: the store is prefilled with the batch, so every op is a weight
// update and the structure neither grows nor rehashes. What remains is
// exactly the per-batch overhead the staging layer adds — partitioning,
// fan-out, result collection — which is why this benchmark anchors the
// allocs/op regression gate (see BENCH_5.json).
func BenchmarkParallelInsertSteady(b *testing.B) {
	edges := benchEdges(8192, 16384, 21)
	p, err := NewParallel(DefaultConfig(), 4)
	if err != nil {
		b.Fatal(err)
	}
	p.InsertBatch(edges)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.InsertBatch(edges)
	}
	b.ReportMetric(float64(len(edges)), "edges/op")
}

// BenchmarkParallelInsertDeleteSteady alternates a full batch insert with a
// full batch delete, so both fan-out paths run and the live edge set
// returns to its prefill state every iteration.
func BenchmarkParallelInsertDeleteSteady(b *testing.B) {
	base := benchEdges(8192, 16384, 23)
	churn := benchEdges(4096, 16384, 29)
	p, err := NewParallel(DefaultConfig(), 4)
	if err != nil {
		b.Fatal(err)
	}
	p.InsertBatch(base)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.InsertBatch(churn)
		p.DeleteBatch(churn)
	}
	b.ReportMetric(float64(len(churn)*2), "edges/op")
}
