package core

// Sharded snapshot serialization. A Parallel snapshot records the shared
// configuration, the shard count, and each shard's live edge set. The
// writer takes a multi-shard version fence: it pins every shard's active
// replica up front (see seqlock.go) and only then starts dumping, so the
// snapshot is a cross-shard cut — every shard section reflects a state
// published no later than the fence, and no section contains a
// half-applied batch. Batches that arrive while the dump streams land
// entirely after the fence: a writer that finds its shard fenced builds
// the shard's second replica, publishes there, and stalls at the reader
// grace period until the fence is released. For a checkpoint tied to an exact
// stream position (the durability layer's requirement), the caller still
// quiesces writers first — e.g. by flushing the ingestion pipeline — and
// ties the snapshot to a WAL offset in the manifest.
//
// Two formats share the "GTPS" magic:
//
// Version 1 (legacy, still readable) is a flat edge stream: per shard a
// u64 edge count followed by 20-byte (src, dst, weightBits) records, with
// no per-section integrity or offsets. It can only be decoded
// sequentially, one InsertEdge at a time.
//
// Version 2 is the parallel-recovery format. After the shared header the
// shards are laid out as independent, self-describing sections, each
// grouped into per-source runs so the loader knows every vertex's final
// degree before inserting its first edge:
//
//	header[10]   magic u32 "GTPS" | version u16 = 2 | shards u32
//	config[72]   9 × u64 (same fields, same order as v1)
//	section × shards, in shard order:
//	    secHeader[40]  edgeCount u64 | sourceCount u64 | degHist[3] u64
//	    run × sourceCount:
//	        src u64 | degree u32 | degree × (dst u64, weightBits u32)
//	table        shards × entry[36]:
//	        offset u64 | length u64 | edgeCount u64 | sourceCount u64 |
//	        crc u32 (CRC32-C over the section bytes)
//	footer[16]   tableOffset u64 | tableCRC u32 | footerMagic u32 "GTS2"
//
// The section table lives in a trailer (located via the fixed-size footer)
// because per-section CRCs are only known after encoding and the writer
// targets a plain io.Writer — it cannot seek back to patch a leading
// table. Section lengths are exactly computable from the counts
// (40 + 12·sources + 12·edges), so the writer sizes every section up
// front, encodes shards concurrently in a bounded window, and writes them
// in order. degHist is advisory pre-sizing metadata: how many of the
// section's sources fall at or below the writer's slice-promote
// threshold, at or below its cuckoo-promote threshold, and above it.
// Decoders must not depend on it — each run carries its exact degree.
//
// Decoding dispatches on the version. v2 from a random-access source
// (io.ReaderAt + io.Seeker, e.g. *os.File) is fully parallel: footer →
// table → per-section CRC check and bulk load into the owning shard's
// replica (see bulkload.go), with no per-op version protocol.
// A non-seekable stream is slurped into memory first and decoded the same
// way, so there is exactly one v2 decode path.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// parallelSnapshotMagic identifies the sharded format ("GTPS").
const (
	parallelSnapshotMagic     = uint32(0x47545053)
	parallelSnapshotVersion   = uint16(2)
	parallelSnapshotVersionV1 = uint16(1)

	v2HeaderSize      = 10 + 9*8           // magic+version+shards, then the config block
	v2SectionHeadSize = 40                 // edgeCount + sourceCount + degHist[3]
	v2TableEntrySize  = 36                 // offset + length + edgeCount + sourceCount + crc
	v2FooterSize      = 16                 // tableOffset + tableCRC + footerMagic
	v2FooterMagic     = uint32(0x47545332) // "GTS2"

	// v2EncodeWindow bounds how many encoded-but-unwritten shard sections
	// the writer holds in memory at once, and so bounds the writer's
	// transient footprint at window · max-section-size.
	v2EncodeWindow = 4
)

// snapCastagnoli is the snapshot CRC polynomial — the same CRC32-C the WAL
// and the replication transport use, so one corruption-detection story
// covers every byte the durability layer persists or ships.
var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// v2Section is one shard's entry in the section table.
type v2Section struct {
	off     uint64
	length  uint64
	edges   uint64
	sources uint64
	crc     uint32
}

func (s v2Section) end() uint64 { return s.off + s.length }

// WriteSnapshot serializes the store in the v2 sectioned format. The dump
// runs under a multi-shard version fence: every shard is pinned before the
// first byte of edge data is written, giving a consistent cross-shard cut
// without blocking readers. Shard sections are encoded concurrently (a
// bounded window of them in flight) and written in shard order.
func (p *Parallel) WriteSnapshot(w io.Writer) error {
	// The fence: pin all shards' active replicas up front. Deferred unpins
	// release the fence even when the writer fails mid-stream — but only
	// after the encoder goroutines are joined (see the cleanup defer
	// below), so no encoder ever touches an unpinned replica.
	pinned := make([]*GraphTinker, len(p.sc))
	for i := range p.sc {
		sc := &p.sc[i]
		g, idx := sc.pinRead()
		defer sc.unpin(idx)
		pinned[i] = g
	}

	le := binary.LittleEndian

	// Size pass: section lengths are exact functions of the (pinned, hence
	// frozen) per-shard counts, so every offset is known before a single
	// section byte is encoded.
	secs := make([]v2Section, len(pinned))
	off := uint64(v2HeaderSize)
	for i, g := range pinned {
		var sources uint64
		g.ForEachSource(func(uint64, uint32) bool { sources++; return true })
		secs[i] = v2Section{off: off, edges: g.NumEdges(), sources: sources}
		secs[i].length = v2SectionHeadSize + 12*sources + 12*secs[i].edges
		off += secs[i].length
	}

	// Concurrent section encode with ordered writes. gates[i] admits shard
	// i's encoder; the main loop opens gate i+window after consuming
	// section i, so at most `window` sections are in memory at once. Every
	// encoder sends exactly one result on its buffered channel and exits.
	type encoded struct {
		buf []byte
		err error
	}
	gates := make([]chan struct{}, len(pinned))
	results := make([]chan encoded, len(pinned))
	for i := range pinned {
		gates[i] = make(chan struct{})
		results[i] = make(chan encoded, 1)
	}
	window := v2EncodeWindow
	if window > len(pinned) {
		window = len(pinned)
	}
	for i := 0; i < window; i++ {
		close(gates[i])
	}
	// Join every encoder before the pin fence drops (this defer runs
	// before the unpins): open any still-shut gate, then drain the results
	// the main loop did not consume.
	defer func() {
		for _, g := range gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
		for _, ch := range results {
			if ch != nil {
				<-ch
			}
		}
	}()
	for i := range pinned {
		go func(i int) {
			<-gates[i]
			buf, err := encodeV2Section(pinned[i], secs[i])
			results[i] <- encoded{buf: buf, err: err}
		}(i)
	}

	var head [v2HeaderSize]byte
	le.PutUint32(head[0:], parallelSnapshotMagic)
	le.PutUint16(head[4:], parallelSnapshotVersion)
	le.PutUint32(head[6:], uint32(len(p.sc)))
	cfg := p.cfg
	cfgFields := []uint64{
		uint64(cfg.PageWidth), uint64(cfg.SubblockSize), uint64(cfg.WorkblockSize),
		boolU64(cfg.EnableSGH), boolU64(cfg.EnableCAL),
		uint64(cfg.CALGroupSize), uint64(cfg.CALBlockSize),
		uint64(cfg.DeleteMode), cfg.HashSeed,
	}
	for i, f := range cfgFields {
		le.PutUint64(head[10+8*i:], f)
	}
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("core: parallel snapshot header: %w", err)
	}

	for i := range pinned {
		enc := <-results[i]
		results[i] = nil
		if i+window < len(gates) {
			close(gates[i+window])
		}
		if enc.err != nil {
			return enc.err
		}
		secs[i].crc = crc32.Checksum(enc.buf, snapCastagnoli)
		if _, err := w.Write(enc.buf); err != nil {
			return fmt.Errorf("core: parallel snapshot shard %d: %w", i, err)
		}
	}

	table := make([]byte, len(secs)*v2TableEntrySize)
	for i, s := range secs {
		o := i * v2TableEntrySize
		le.PutUint64(table[o:], s.off)
		le.PutUint64(table[o+8:], s.length)
		le.PutUint64(table[o+16:], s.edges)
		le.PutUint64(table[o+24:], s.sources)
		le.PutUint32(table[o+32:], s.crc)
	}
	if _, err := w.Write(table); err != nil {
		return fmt.Errorf("core: parallel snapshot section table: %w", err)
	}
	var foot [v2FooterSize]byte
	le.PutUint64(foot[0:], off)
	le.PutUint32(foot[8:], crc32.Checksum(table, snapCastagnoli))
	le.PutUint32(foot[12:], v2FooterMagic)
	if _, err := w.Write(foot[:]); err != nil {
		return fmt.Errorf("core: parallel snapshot footer: %w", err)
	}
	return nil
}

// encodeV2Section dumps one pinned replica as a v2 section: the 40-byte
// header, then one run per live source. sec carries the pre-computed
// counts, which pin the buffer size exactly.
func encodeV2Section(g *GraphTinker, sec v2Section) ([]byte, error) {
	le := binary.LittleEndian
	buf := make([]byte, sec.length)
	cfg := g.cfg
	var hist [3]uint64
	o := v2SectionHeadSize
	var edges uint64
	ok := true
	for d := 0; d < len(g.cont) && ok; d++ {
		if g.cont[d].kind == reprNone {
			continue
		}
		deg := g.props.degree[d]
		if deg == 0 {
			continue
		}
		switch {
		case int(deg) <= cfg.SlicePromoteDegree:
			hist[0]++
		case int(deg) <= cfg.CuckooPromoteDegree:
			hist[1]++
		default:
			hist[2]++
		}
		if o+12 > len(buf) {
			ok = false
			break
		}
		le.PutUint64(buf[o:], g.rawOf(uint32(d)))
		le.PutUint32(buf[o+8:], deg)
		o += 12
		g.cont[d].Iterate(func(dst uint64, wt float32) bool {
			if o+12 > len(buf) {
				ok = false
				return false
			}
			le.PutUint64(buf[o:], dst)
			le.PutUint32(buf[o+8:], floatBits(wt))
			o += 12
			edges++
			return true
		})
	}
	if !ok || o != len(buf) || edges != sec.edges {
		// The size pass and the dump ran on the same pinned (frozen)
		// replica; a mismatch means the fence was violated.
		return nil, fmt.Errorf("core: parallel snapshot section changed size during dump (replica mutated under the pin fence?)")
	}
	le.PutUint64(buf[0:], sec.edges)
	le.PutUint64(buf[8:], sec.sources)
	le.PutUint64(buf[16:], hist[0])
	le.PutUint64(buf[24:], hist[1])
	le.PutUint64(buf[32:], hist[2])
	return buf, nil
}

// ReadParallelSnapshot reconstructs a sharded store from a snapshot
// produced by Parallel.WriteSnapshot (either format version). The stored
// configuration is used unless override is non-nil. v2 snapshots load in
// parallel — per-shard sections decode concurrently, bulk-building each
// shard's replica before the store is published — whenever the edges
// route to their recorded shards (override nil, or an override keeping
// the stored HashSeed). An override that changes the partition falls back
// to re-routing every edge through InsertEdge. Truncated or corrupt input
// fails with a wrapped error naming the shard and byte offset.
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
	ra, size, err := snapshotRandomAccess(r)
	if err != nil {
		return nil, fmt.Errorf("core: parallel snapshot: %w", err)
	}
	le := binary.LittleEndian
	var head [10]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("core: parallel snapshot header truncated at byte offset 0 (file is %d bytes): %w", size, err)
	}
	if le.Uint32(head[0:]) != parallelSnapshotMagic {
		return nil, fmt.Errorf("core: not a sharded GraphTinker snapshot")
	}
	switch v := le.Uint16(head[4:]); v {
	case parallelSnapshotVersionV1:
		return readParallelSnapshotV1(io.NewSectionReader(ra, 0, size), override)
	case parallelSnapshotVersion:
		return readParallelSnapshotV2(ra, size, override, sequential)
	default:
		return nil, fmt.Errorf("core: unsupported parallel snapshot version %d", v)
	}
}

// snapshotRandomAccess adapts r for random-access decoding. A reader that
// is already seekable (an *os.File, a *bytes.Reader) is used in place;
// anything else — a network stream, a decompressor — is slurped into
// memory, which is what the sequential decoder would have ended up
// holding as a store anyway.
func snapshotRandomAccess(r io.Reader) (io.ReaderAt, int64, error) {
	if ra, ok := r.(io.ReaderAt); ok {
		if sk, ok := r.(io.Seeker); ok {
			if size, err := sk.Seek(0, io.SeekEnd); err == nil {
				return ra, size, nil
			}
		}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	return bytes.NewReader(data), int64(len(data)), nil
}

// readParallelSnapshotV2 decodes a v2 snapshot: footer, then the
// CRC-checked section table, then the per-shard sections — concurrently,
// one bulk-built replica per shard, when the partition allows, sequentially through
// InsertEdge otherwise.
func readParallelSnapshotV2(ra io.ReaderAt, size int64, override *Config, sequential bool) (*Parallel, error) {
	le := binary.LittleEndian
	var head [v2HeaderSize]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("core: parallel snapshot header truncated at byte offset 0 (need %d bytes, file is %d): %w", v2HeaderSize, size, err)
	}
	shards := int(le.Uint32(head[6:]))
	if shards <= 0 || shards > 1<<16 {
		return nil, fmt.Errorf("core: parallel snapshot declares implausible shard count %d", shards)
	}
	var fields [9]uint64
	for i := range fields {
		fields[i] = le.Uint64(head[10+8*i:])
	}
	storedSeed := fields[8]
	cfg := Config{
		PageWidth:     int(fields[0]),
		SubblockSize:  int(fields[1]),
		WorkblockSize: int(fields[2]),
		EnableSGH:     fields[3] != 0,
		EnableCAL:     fields[4] != 0,
		CALGroupSize:  int(fields[5]),
		CALBlockSize:  int(fields[6]),
		DeleteMode:    DeleteMode(fields[7]),
		HashSeed:      fields[8],
	}
	if override != nil {
		cfg = *override
	}

	minSize := int64(v2HeaderSize) + int64(shards)*v2TableEntrySize + v2FooterSize
	if size < minSize {
		return nil, fmt.Errorf("core: parallel snapshot truncated: %d bytes cannot hold the %d-shard section table and footer (need >= %d)", size, shards, minSize)
	}
	footOff := size - v2FooterSize
	var foot [v2FooterSize]byte
	if _, err := ra.ReadAt(foot[:], footOff); err != nil {
		return nil, fmt.Errorf("core: parallel snapshot footer truncated at byte offset %d: %w", footOff, err)
	}
	if got := le.Uint32(foot[12:]); got != v2FooterMagic {
		return nil, fmt.Errorf("core: parallel snapshot footer magic %#08x at byte offset %d, want %#08x (truncated or overwritten trailer)", got, footOff+12, v2FooterMagic)
	}
	tableOff := int64(le.Uint64(foot[0:]))
	tableLen := int64(shards) * v2TableEntrySize
	if tableOff < v2HeaderSize || tableOff+tableLen != footOff {
		return nil, fmt.Errorf("core: parallel snapshot section table claims byte offsets %d..%d but the footer sits at %d", tableOff, tableOff+tableLen, footOff)
	}
	table := make([]byte, tableLen)
	if _, err := ra.ReadAt(table, tableOff); err != nil {
		return nil, fmt.Errorf("core: parallel snapshot section table truncated at byte offset %d: %w", tableOff, err)
	}
	if got, want := crc32.Checksum(table, snapCastagnoli), le.Uint32(foot[8:]); got != want {
		return nil, fmt.Errorf("core: parallel snapshot section table checksum mismatch at byte offset %d: got %#08x, want %#08x", tableOff, got, want)
	}
	secs := make([]v2Section, shards)
	next := uint64(v2HeaderSize)
	for i := range secs {
		o := i * v2TableEntrySize
		secs[i] = v2Section{
			off:     le.Uint64(table[o:]),
			length:  le.Uint64(table[o+8:]),
			edges:   le.Uint64(table[o+16:]),
			sources: le.Uint64(table[o+24:]),
			crc:     le.Uint32(table[o+32:]),
		}
		s := secs[i]
		if s.off != next {
			return nil, fmt.Errorf("core: parallel snapshot shard %d section at byte offset %d, want %d (table entry at byte offset %d)", i, s.off, next, tableOff+int64(o))
		}
		if want := uint64(v2SectionHeadSize) + 12*s.sources + 12*s.edges; s.length != want {
			return nil, fmt.Errorf("core: parallel snapshot shard %d section length %d does not match its counts (%d sources, %d edges need %d; table entry at byte offset %d)", i, s.length, s.sources, s.edges, want, tableOff+int64(o))
		}
		next = s.end()
	}
	if next != uint64(tableOff) {
		return nil, fmt.Errorf("core: parallel snapshot sections end at byte offset %d but the section table starts at %d", next, tableOff)
	}

	p, err := NewParallel(cfg, shards)
	if err != nil {
		return nil, fmt.Errorf("core: parallel snapshot config invalid: %w", err)
	}
	// The bulk loader builds each section's edges straight into the owning
	// shard's replica, so it requires the file's partition: an override
	// that changes HashSeed re-routes edges and must take the op-by-op
	// path instead.
	if sequential || (override != nil && override.HashSeed != storedSeed) {
		if err := readV2Sequential(ra, p, secs); err != nil {
			p.Close()
			return nil, err
		}
	} else if err := p.bulkLoadSections(ra, secs); err != nil {
		p.Close()
		return nil, err
	}
	p.ResetStats()
	return p, nil
}

// readV2Section reads and CRC-checks one shard's section bytes.
func readV2Section(ra io.ReaderAt, shard int, sec v2Section) ([]byte, error) {
	buf := make([]byte, sec.length)
	if _, err := ra.ReadAt(buf, int64(sec.off)); err != nil {
		return nil, fmt.Errorf("core: parallel snapshot shard %d section truncated at byte offset %d: %w", shard, sec.off, err)
	}
	if got := crc32.Checksum(buf, snapCastagnoli); got != sec.crc {
		return nil, fmt.Errorf("core: parallel snapshot shard %d section checksum mismatch (section spans byte offsets %d..%d): got %#08x, want %#08x", shard, sec.off, sec.end(), got, sec.crc)
	}
	return buf, nil
}

// decodeV2Runs walks a section's per-source runs, handing each to fn with
// a reused scratch slice (fn must not retain it). Offsets in errors are
// absolute file offsets.
func decodeV2Runs(buf []byte, shard int, sec v2Section, fn func(src uint64, run []Edge) error) error {
	le := binary.LittleEndian
	if got := le.Uint64(buf[0:]); got != sec.edges {
		return fmt.Errorf("core: parallel snapshot shard %d section header declares %d edges but the table says %d (section at byte offset %d)", shard, got, sec.edges, sec.off)
	}
	if got := le.Uint64(buf[8:]); got != sec.sources {
		return fmt.Errorf("core: parallel snapshot shard %d section header declares %d sources but the table says %d (section at byte offset %d)", shard, got, sec.sources, sec.off)
	}
	o := v2SectionHeadSize
	var run []Edge
	var edges uint64
	for s := uint64(0); s < sec.sources; s++ {
		if o+12 > len(buf) {
			return fmt.Errorf("core: parallel snapshot shard %d run %d truncated at byte offset %d", shard, s, sec.off+uint64(o))
		}
		src := le.Uint64(buf[o:])
		deg := int(le.Uint32(buf[o+8:]))
		o += 12
		if deg == 0 || o+12*deg > len(buf) {
			return fmt.Errorf("core: parallel snapshot shard %d source %d declares implausible degree %d at byte offset %d", shard, src, deg, sec.off+uint64(o)-4)
		}
		run = run[:0]
		for k := 0; k < deg; k++ {
			run = append(run, Edge{
				Src:    src,
				Dst:    le.Uint64(buf[o:]),
				Weight: floatFrom(le.Uint32(buf[o+8:])),
			})
			o += 12
		}
		edges += uint64(deg)
		if err := fn(src, run); err != nil {
			return err
		}
	}
	if o != len(buf) || edges != sec.edges {
		return fmt.Errorf("core: parallel snapshot shard %d section runs cover %d edges in %d bytes, table says %d edges in %d bytes", shard, edges, o, sec.edges, sec.length)
	}
	return nil
}

// readV2Sequential is the op-by-op v2 decode: sections in order, every
// edge through the full InsertEdge (shard-routing) path. Used for the
// differential oracle and for overrides that change the partition.
func readV2Sequential(ra io.ReaderAt, p *Parallel, secs []v2Section) error {
	for i, sec := range secs {
		buf, err := readV2Section(ra, i, sec)
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

// bulkLoadSections decodes every section concurrently, each into its
// owning shard's replica via the pre-publication bulk loader (see
// bulkload.go). Concurrency is bounded so a wide store does not read its
// whole snapshot into memory at once.
func (p *Parallel) bulkLoadSections(ra io.ReaderAt, secs []v2Section) error {
	sem := make(chan struct{}, v2EncodeWindow)
	errs := make([]error, len(secs))
	var wg sync.WaitGroup
	for i := range secs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = p.bulkLoadSection(ra, i, secs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// The bulk path skips the seqlock protocol, so verify its outcome the
	// way ReadSnapshot guards the single-instance format: every shard must
	// hold exactly the edge count the table promised (duplicate
	// destinations inside a run would silently collapse).
	for i := range secs {
		if got := p.sc[i].quiescedInstance().NumEdges(); got != secs[i].edges {
			return fmt.Errorf("core: parallel snapshot shard %d bulk load produced %d edges, section table says %d (duplicate records?)", i, got, secs[i].edges)
		}
	}
	return nil
}

// readParallelSnapshotV1 decodes the legacy v1 flat edge stream.
func readParallelSnapshotV1(r io.Reader, override *Config) (*Parallel, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	le := binary.LittleEndian
	offset := func() int64 { return cr.off - int64(br.Buffered()) }

	var head [10]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("core: parallel snapshot header truncated at byte offset %d: %w", offset(), err)
	}
	if le.Uint32(head[0:]) != parallelSnapshotMagic {
		return nil, fmt.Errorf("core: not a sharded GraphTinker snapshot")
	}
	if v := le.Uint16(head[4:]); v != parallelSnapshotVersionV1 {
		return nil, fmt.Errorf("core: unsupported parallel snapshot version %d", v)
	}
	shards := int(le.Uint32(head[6:]))
	if shards <= 0 || shards > 1<<16 {
		return nil, fmt.Errorf("core: parallel snapshot declares implausible shard count %d", shards)
	}

	var fields [9]uint64
	var buf [8]byte
	for i := range fields {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("core: parallel snapshot config truncated at byte offset %d: %w", offset(), err)
		}
		fields[i] = le.Uint64(buf[:])
	}
	cfg := Config{
		PageWidth:     int(fields[0]),
		SubblockSize:  int(fields[1]),
		WorkblockSize: int(fields[2]),
		EnableSGH:     fields[3] != 0,
		EnableCAL:     fields[4] != 0,
		CALGroupSize:  int(fields[5]),
		CALBlockSize:  int(fields[6]),
		DeleteMode:    DeleteMode(fields[7]),
		HashSeed:      fields[8],
	}
	if override != nil {
		cfg = *override
	}
	p, err := NewParallel(cfg, shards)
	if err != nil {
		return nil, fmt.Errorf("core: parallel snapshot config invalid: %w", err)
	}

	var rec [20]byte
	for s := 0; s < shards; s++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("core: parallel snapshot shard %d edge count truncated at byte offset %d: %w", s, offset(), err)
		}
		count := le.Uint64(buf[:])
		for i := uint64(0); i < count; i++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("core: parallel snapshot shard %d edge %d of %d truncated at byte offset %d: %w", s, i, count, offset(), err)
			}
			p.InsertEdge(le.Uint64(rec[0:]), le.Uint64(rec[8:]), floatFrom(le.Uint32(rec[16:])))
		}
	}
	p.ResetStats()
	return p, nil
}
