package graphtinker

// Facade over internal/ingest: the sharded streaming pipeline for raw
// update throughput on a Parallel store. Producers push unbounded
// insert/delete streams; the pipeline coalesces them into batches, flushes
// on size or time, and one applier goroutine hands each flush to the
// store's ApplyOps, which splits it over the shards, and each shard's
// apply further, on the process's apply helpers. Concurrent readers
// stay safe throughout: reads take no lock, and each runs on a
// version-pinned replica that no writer is changing. Flush gives
// read-your-writes. For per-batch analytics instead of raw
// throughput, see Session.StartStream.

import "graphtinker/internal/ingest"

// Update is one streaming edge operation (insert or delete).
type Update = ingest.Update

// InsertUpdate makes an insert op for a streaming pipeline.
func InsertUpdate(src, dst uint64, w float32) Update { return ingest.Insert(src, dst, w) }

// DeleteUpdate makes a delete op for a streaming pipeline.
func DeleteUpdate(src, dst uint64) Update { return ingest.Delete(src, dst) }

// StreamPipeline is the sharded streaming ingestion pipeline.
type StreamPipeline = ingest.Pipeline

// StreamPipelineOptions configures batching, flushing, and backpressure.
type StreamPipelineOptions = ingest.Options

// StreamTotals summarizes a pipeline's lifetime work.
type StreamTotals = ingest.Totals

// NewStreamPipeline starts a streaming pipeline over a sharded store. The
// pipeline owns the write path while it is open; queries on p remain safe
// concurrently.
func NewStreamPipeline(p *Parallel, opts StreamPipelineOptions) (*StreamPipeline, error) {
	return ingest.New(p, opts)
}
