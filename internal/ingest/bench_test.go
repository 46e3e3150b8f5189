package ingest

import (
	"testing"

	"graphtinker/internal/core"
)

// benchUpdates synthesizes a skewed edge stream matching the core
// benchmark's shape, as insert ops.
func benchUpdates(n int, vertices uint64, seed uint64) []Update {
	s := seed
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	out := make([]Update, n)
	for i := range out {
		u := next() % vertices
		out[i] = Insert((u*u)%vertices, next()%vertices, 1)
	}
	return out
}

// BenchmarkPipelinePushFlush measures the steady-state ingest hot path —
// PushBatch coalescing plus the flush/ApplyOps cycle over a 4-shard
// store that every op merely updates, so per-flush staging overhead (not
// structure growth) is what's measured. One op = one MaxBatch-sized batch
// pushed and drained to the read-your-writes barrier.
func BenchmarkPipelinePushFlush(b *testing.B) {
	par, err := core.NewParallel(core.DefaultConfig(), 4)
	if err != nil {
		b.Fatal(err)
	}
	batch := benchUpdates(4096, 16384, 31)
	pipe := MustNew(par, Options{
		MaxBatch:      len(batch),
		FlushInterval: -1, // only size triggers and explicit Flush drain
		MaxPending:    8 * len(batch),
	})
	if err := pipe.PushBatch(batch); err != nil {
		b.Fatal(err)
	}
	pipe.Flush()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pipe.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
		pipe.Flush()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(batch)), "edges/op")
	if _, err := pipe.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelinePush measures admission alone: pushes land in the
// coalescing buffer and flush by size, without a per-op barrier.
func BenchmarkPipelinePush(b *testing.B) {
	par, err := core.NewParallel(core.DefaultConfig(), 4)
	if err != nil {
		b.Fatal(err)
	}
	batch := benchUpdates(512, 16384, 37)
	pipe := MustNew(par, Options{
		MaxBatch:      4096,
		FlushInterval: -1,
		MaxPending:    1 << 16,
	})
	if err := pipe.PushBatch(batch); err != nil {
		b.Fatal(err)
	}
	pipe.Flush()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pipe.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(batch)), "edges/op")
	if _, err := pipe.Close(); err != nil {
		b.Fatal(err)
	}
}
