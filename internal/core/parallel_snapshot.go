package core

// Sharded snapshots: the Parallel side of the one snapshot format
// (snapshot.go holds the byte layout, the writer, the dispatch and the
// parser). The writer takes a multi-shard version fence: it pins every
// shard's active replica up front (see seqlock.go) and only then starts
// dumping, so the snapshot is a cross-shard cut — every shard section
// reflects a state published no later than the fence, and no section
// contains a half-applied batch. Batches that arrive while the dump
// streams land entirely after the fence: a writer that finds its shard
// fenced builds the shard's second replica, publishes there, and stalls at
// the reader grace period until the fence is released. For a checkpoint
// tied to an exact stream position (the durability layer's requirement),
// the caller still quiesces writers first — e.g. by flushing the ingestion
// pipeline — and ties the snapshot to a WAL offset in the manifest.
//
// A v2 file loads in parallel: each section is CRC-checked and bulk-loaded
// into the owning shard's replica (see bulkload.go), with no per-op
// version protocol. A legacy flat file, or an override that changes the
// partition, goes through InsertEdge instead.

import (
	"fmt"
	"io"
	"sync"
)

// WriteSnapshot serializes the store as a v2 snapshot, one section per
// shard. The dump runs under a multi-shard version fence: every shard is
// pinned before the first byte of edge data is written, giving a
// consistent cross-shard cut without blocking readers.
func (p *Parallel) WriteSnapshot(w io.Writer) error {
	// The fence: pin all shards' active replicas up front. The deferred
	// unpins run after writeSnapshot has joined its encoders, so no encoder
	// ever touches an unpinned replica, even when w fails mid-stream.
	pinned := make([]*GraphTinker, len(p.sc))
	for i := range p.sc {
		sc := &p.sc[i]
		g, idx := sc.pinRead()
		defer sc.unpin(idx)
		pinned[i] = g
	}
	return writeSnapshot(w, p.cfg, pinned)
}

// ReadParallelSnapshot reconstructs a sharded store from a snapshot in any
// format WriteSnapshot has produced — a Parallel's, or a lone graph's,
// which loads as one shard. The stored configuration is used unless
// override is non-nil. v2 snapshots load in parallel — sections decode
// concurrently, bulk-building each shard's replica before the store is
// published — whenever the edges route to their recorded shards (override
// nil, or an override keeping the stored HashSeed). An override that
// changes the partition falls back to re-routing every edge through
// InsertEdge. Truncated or corrupt input fails with a wrapped error naming
// the shard and byte offset.
func ReadParallelSnapshot(r io.Reader, override *Config) (*Parallel, error) {
	return readParallelSnapshot(r, override, false)
}

// ReadParallelSnapshotSequential decodes a snapshot with the op-by-op
// InsertEdge path even when the parallel bulk loader could be used. It is
// the differential oracle the recovery tests and the gtbench recovery
// probe compare the bulk loader against.
func ReadParallelSnapshotSequential(r io.Reader, override *Config) (*Parallel, error) {
	return readParallelSnapshot(r, override, true)
}

func readParallelSnapshot(r io.Reader, override *Config, sequential bool) (*Parallel, error) {
	f, err := openSnapshot(r)
	if err != nil {
		return nil, err
	}
	p, err := NewParallel(f.config(override), f.shards)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot config invalid: %w", err)
	}
	switch {
	case f.secs == nil:
		err = decodeFlat(f, p.InsertEdge)
	// The bulk loader builds each section's edges straight into the owning
	// shard's replica, so it requires the file's partition: an override
	// that changes HashSeed re-routes edges and must take the op-by-op
	// path instead.
	case sequential || (override != nil && override.HashSeed != f.cfg.HashSeed):
		err = readV2Sequential(f, p)
	default:
		err = p.bulkLoadSections(f)
	}
	if err != nil {
		return nil, err
	}
	p.ResetStats()
	return p, nil
}

// readV2Sequential is the op-by-op v2 decode: sections in order, every
// edge through the full InsertEdge (shard-routing) path. Used for the
// differential oracle and for overrides that change the partition.
func readV2Sequential(f *snapshotFile, p *Parallel) error {
	for i, sec := range f.secs {
		buf, err := readV2Section(f.ra, i, sec)
		if err != nil {
			return err
		}
		if err := decodeV2Runs(buf, i, sec, func(src uint64, run []Edge) error {
			for _, e := range run {
				p.InsertEdge(src, e.Dst, e.Weight)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// bulkLoadSections loads every section concurrently, each into its owning
// shard's replica through the section loader. Concurrency is bounded so a
// wide store does not read its whole snapshot into memory at once.
func (p *Parallel) bulkLoadSections(f *snapshotFile) error {
	sem := make(chan struct{}, v2EncodeWindow)
	errs := make([]error, len(f.secs))
	var wg sync.WaitGroup
	for i := range f.secs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = loadSection(f.ra, i, f.secs[i], p.sc[i].quiescedInstance(), p.shardOf)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
