package core

// Snapshot serialization: one format for every store. A snapshot records
// the configuration and the live edge set; loading rebuilds the structure
// through the containers' real insert path, which preserves every internal
// invariant by construction (dumping raw arenas would couple the format to
// memory-layout details for no retrieval benefit).
//
// The format is GTPS v2. A lone GraphTinker writes it as a one-section
// file and a Parallel as one section per shard, through the same writer —
// a lone graph and a 1-shard Parallel fed the same ops write identical
// bytes. Each section is grouped into per-source runs, so the loader knows
// every vertex's final degree before inserting its first edge:
//
//	header[10]   magic u32 "GTPS" | version u16 = 2 | shards u32
//	config[72]   9 × u64 (see encodeConfig)
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
// front, encodes sections concurrently in a bounded window, and writes
// them in order. degHist is advisory pre-sizing metadata: how many of the
// section's sources fall at or below the writer's slice-promote
// threshold, at or below its cuckoo-promote threshold, and above it.
// Decoders must not depend on it — each run carries its exact degree.
//
// Both readers (ReadSnapshot for a lone graph, ReadParallelSnapshot for a
// sharded store) open a file through one magic/version dispatch, so each
// accepts every format ever written: v2 through one table parser and one
// section loader (bulkload.go), and the two legacy layouts — GTK1 (a lone
// graph) and GTPS v1 (sharded) — through one read-only decoder. Nothing
// writes them any more.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	snapshotMagic   = uint32(0x47545053) // "GTPS"
	snapshotVersion = uint16(2)
	// The legacy flat layouts, read only: GTPS v1, and GTK1 v1.
	snapshotVersionV1 = uint16(1)
	gtk1Magic         = uint32(0x47544b31) // "GTK1"

	configSize        = 9 * 8
	v2HeaderSize      = 10 + configSize    // magic+version+shards, then the config block
	v2SectionHeadSize = 40                 // edgeCount + sourceCount + degHist[3]
	v2TableEntrySize  = 36                 // offset + length + edgeCount + sourceCount + crc
	v2FooterSize      = 16                 // tableOffset + tableCRC + footerMagic
	v2FooterMagic     = uint32(0x47545332) // "GTS2"
	flatRecordSize    = 20                 // legacy src u64 | dst u64 | weightBits u32

	// v2EncodeWindow bounds how many encoded-but-unwritten sections the
	// writer holds in memory at once (and how many sections load at once),
	// and so bounds the transient footprint at window · max-section-size.
	v2EncodeWindow = 4
)

// snapCastagnoli is the snapshot CRC polynomial — the same CRC32-C the WAL
// and the replication transport use, so one corruption-detection story
// covers every byte the durability layer persists or ships.
var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// v2Section is one section's entry in the section table.
type v2Section struct {
	off     uint64
	length  uint64
	edges   uint64
	sources uint64
	crc     uint32
}

func (s v2Section) end() uint64 { return s.off + s.length }

// WriteSnapshot serializes the configuration and every live edge to w as a
// one-section v2 snapshot. The caller keeps the graph unchanged meanwhile.
func (gt *GraphTinker) WriteSnapshot(w io.Writer) error {
	return writeSnapshot(w, gt.cfg, []*GraphTinker{gt})
}

// ReadSnapshot reconstructs an instance from a snapshot in any format
// either WriteSnapshot has produced — a lone graph's, or a Parallel's,
// whose shards it merges. The stored configuration is used unless override
// is non-nil (letting callers re-tune geometry on load). Truncated or
// corrupt input fails with a wrapped error naming the byte offset; a short
// edge section never silently yields a partial graph.
func ReadSnapshot(r io.Reader, override *Config) (*GraphTinker, error) {
	f, err := openSnapshot(r)
	if err != nil {
		return nil, err
	}
	gt, err := New(f.config(override))
	if err != nil {
		return nil, fmt.Errorf("core: snapshot config invalid: %w", err)
	}
	if f.secs == nil {
		err = decodeFlat(f, gt.InsertEdge)
	}
	for i := 0; err == nil && i < len(f.secs); i++ {
		err = loadSection(f.ra, i, f.secs[i], gt, nil)
	}
	if err != nil {
		return nil, err
	}
	gt.ResetStats() // loading is not part of the measured workload
	return gt, nil
}

// writeSnapshot is the one snapshot writer: header and config block, one
// section per replica — encoded concurrently in a bounded window, written
// in order — then the section table and footer. The replicas must stay
// unchanged until it returns; every encoder has finished by then.
func writeSnapshot(w io.Writer, cfg Config, replicas []*GraphTinker) error {
	le := binary.LittleEndian

	// Size pass: section lengths are exact functions of the (frozen)
	// counts, so every offset is known before a single section byte is
	// encoded.
	secs := make([]v2Section, len(replicas))
	off := uint64(v2HeaderSize)
	for i, g := range replicas {
		var sources uint64
		g.ForEachSource(func(uint64, uint32) bool { sources++; return true })
		secs[i] = v2Section{off: off, edges: g.NumEdges(), sources: sources}
		secs[i].length = v2SectionHeadSize + 12*sources + 12*secs[i].edges
		off += secs[i].length
	}

	// Concurrent section encode with ordered writes. gates[i] admits
	// section i's encoder; the main loop opens gate i+window after
	// consuming section i, so at most `window` sections are in memory at
	// once. Every encoder sends exactly one result on its buffered channel
	// and exits.
	type encoded struct {
		buf []byte
		err error
	}
	gates := make([]chan struct{}, len(replicas))
	results := make([]chan encoded, len(replicas))
	for i := range replicas {
		gates[i] = make(chan struct{})
		results[i] = make(chan encoded, 1)
	}
	window := min(v2EncodeWindow, len(replicas))
	for i := 0; i < window; i++ {
		close(gates[i])
	}
	// Join every encoder before returning (a Parallel's pin fence drops
	// right after): open any still-shut gate, then drain the results the
	// main loop did not consume.
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
	for i := range replicas {
		go func(i int) {
			<-gates[i]
			buf, err := encodeV2Section(replicas[i], secs[i])
			results[i] <- encoded{buf: buf, err: err}
		}(i)
	}

	var head [v2HeaderSize]byte
	le.PutUint32(head[0:], snapshotMagic)
	le.PutUint16(head[4:], snapshotVersion)
	le.PutUint32(head[6:], uint32(len(replicas)))
	encodeConfig(head[10:], cfg)
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("core: snapshot header: %w", err)
	}

	for i := range replicas {
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
			return fmt.Errorf("core: snapshot shard %d: %w", i, err)
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
		return fmt.Errorf("core: snapshot section table: %w", err)
	}
	var foot [v2FooterSize]byte
	le.PutUint64(foot[0:], off)
	le.PutUint32(foot[8:], crc32.Checksum(table, snapCastagnoli))
	le.PutUint32(foot[12:], v2FooterMagic)
	if _, err := w.Write(foot[:]); err != nil {
		return fmt.Errorf("core: snapshot footer: %w", err)
	}
	return nil
}

// encodeV2Section dumps one frozen replica as a v2 section: the 40-byte
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
			le.PutUint32(buf[o+8:], math.Float32bits(wt))
			o += 12
			edges++
			return true
		})
	}
	if !ok || o != len(buf) || edges != sec.edges {
		// The size pass and the dump ran on the same frozen replica; a
		// mismatch means it was mutated under the writer.
		return nil, fmt.Errorf("core: snapshot section changed size during dump (replica mutated under the pin fence?)")
	}
	le.PutUint64(buf[0:], sec.edges)
	le.PutUint64(buf[8:], sec.sources)
	le.PutUint64(buf[16:], hist[0])
	le.PutUint64(buf[24:], hist[1])
	le.PutUint64(buf[32:], hist[2])
	return buf, nil
}

// encodeConfig writes the persisted configuration fields; every format
// stores the same nine, in this order.
func encodeConfig(b []byte, cfg Config) {
	for i, f := range [9]uint64{
		uint64(cfg.PageWidth), uint64(cfg.SubblockSize), uint64(cfg.WorkblockSize),
		boolU64(cfg.EnableSGH), boolU64(cfg.EnableCAL),
		uint64(cfg.CALGroupSize), uint64(cfg.CALBlockSize),
		uint64(cfg.DeleteMode), cfg.HashSeed,
	} {
		binary.LittleEndian.PutUint64(b[8*i:], f)
	}
}

func decodeConfig(b []byte) Config {
	var f [9]uint64
	for i := range f {
		f[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return Config{
		PageWidth:     int(f[0]),
		SubblockSize:  int(f[1]),
		WorkblockSize: int(f[2]),
		EnableSGH:     f[3] != 0,
		EnableCAL:     f[4] != 0,
		CALGroupSize:  int(f[5]),
		CALBlockSize:  int(f[6]),
		DeleteMode:    DeleteMode(f[7]),
		HashSeed:      f[8],
	}
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// snapshotFile is an opened snapshot of any format: its stored
// configuration and shard width, and where its edges are — the validated
// v2 section table, or (secs nil) a legacy flat record stream at flatOff.
type snapshotFile struct {
	ra      io.ReaderAt
	size    int64
	cfg     Config
	shards  int
	secs    []v2Section
	flatOff int64
}

// config is the configuration to load under: override when given.
func (f *snapshotFile) config(override *Config) Config {
	if override != nil {
		return *override
	}
	return f.cfg
}

// openSnapshot is the one magic/version dispatch every reader goes
// through. A v2 file comes back with its section table parsed and
// validated; a legacy one with the offset of its record stream.
func openSnapshot(r io.Reader) (*snapshotFile, error) {
	ra, size, err := snapshotRandomAccess(r)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	le := binary.LittleEndian
	var head [10]byte
	n, rerr := ra.ReadAt(head[:], 0) // a GTK1 header is only 6 bytes: judged by n
	if n < 6 {
		return nil, fmt.Errorf("core: snapshot header truncated at byte offset %d (file is %d bytes): %w", n, size, rerr)
	}
	f := &snapshotFile{ra: ra, size: size, shards: 1}
	magic, version := le.Uint32(head[0:]), le.Uint16(head[4:])
	cfgOff := int64(6) // GTK1 has no shard count
	switch {
	case magic == snapshotMagic && (version == snapshotVersion || version == snapshotVersionV1):
		if n < 10 {
			return nil, fmt.Errorf("core: snapshot header truncated at byte offset %d (file is %d bytes): %w", n, size, rerr)
		}
		f.shards = int(le.Uint32(head[6:]))
		if f.shards <= 0 || f.shards > 1<<16 {
			return nil, fmt.Errorf("core: snapshot declares implausible shard count %d", f.shards)
		}
		cfgOff = 10
	case magic == gtk1Magic && version == snapshotVersionV1:
	case magic == snapshotMagic || magic == gtk1Magic:
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	default:
		return nil, fmt.Errorf("core: not a GraphTinker snapshot (magic %#08x)", magic)
	}
	var cfg [configSize]byte
	if n, err := ra.ReadAt(cfg[:], cfgOff); n < configSize {
		return nil, fmt.Errorf("core: snapshot config truncated at byte offset %d (file is %d bytes): %w", cfgOff+int64(n), size, err)
	}
	f.cfg = decodeConfig(cfg[:])
	if magic == snapshotMagic && version == snapshotVersion {
		if f.secs, err = parseV2Table(ra, size, f.shards); err != nil {
			return nil, err
		}
		return f, nil
	}
	// Every shard needs at least its record count, which bounds the stores
	// a short crafted file can make a reader allocate.
	f.flatOff = cfgOff + configSize
	if need := f.flatOff + 8*int64(f.shards); size < need {
		return nil, fmt.Errorf("core: snapshot truncated: %d bytes cannot hold the %d-shard edge counts (need >= %d)", size, f.shards, need)
	}
	return f, nil
}

// snapshotRandomAccess adapts r for random-access decoding. A reader that
// is already seekable (an *os.File, a *bytes.Reader) is used in place;
// anything else — a network stream, a decompressor — is slurped into
// memory, which is what the decoder would have ended up holding as a
// store anyway.
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

// parseV2Table is the one v2 table parser: footer, CRC-checked table,
// then every entry checked to tile the bytes between the header and the
// table exactly, with a length its counts account for.
func parseV2Table(ra io.ReaderAt, size int64, shards int) ([]v2Section, error) {
	le := binary.LittleEndian
	minSize := int64(v2HeaderSize) + int64(shards)*v2TableEntrySize + v2FooterSize
	if size < minSize {
		return nil, fmt.Errorf("core: snapshot truncated: %d bytes cannot hold the %d-shard section table and footer (need >= %d)", size, shards, minSize)
	}
	footOff := size - v2FooterSize
	var foot [v2FooterSize]byte
	if _, err := ra.ReadAt(foot[:], footOff); err != nil {
		return nil, fmt.Errorf("core: snapshot footer truncated at byte offset %d: %w", footOff, err)
	}
	if got := le.Uint32(foot[12:]); got != v2FooterMagic {
		return nil, fmt.Errorf("core: snapshot footer magic %#08x at byte offset %d, want %#08x (truncated or overwritten trailer)", got, footOff+12, v2FooterMagic)
	}
	tableOff := le.Uint64(foot[0:])
	tableLen := uint64(shards) * v2TableEntrySize
	if tableOff != uint64(footOff)-tableLen { // minSize keeps this past the header
		return nil, fmt.Errorf("core: snapshot section table claims byte offset %d but a %d-shard table must end at the footer at %d", tableOff, shards, footOff)
	}
	table := make([]byte, tableLen)
	if _, err := ra.ReadAt(table, int64(tableOff)); err != nil {
		return nil, fmt.Errorf("core: snapshot section table truncated at byte offset %d: %w", tableOff, err)
	}
	if got, want := crc32.Checksum(table, snapCastagnoli), le.Uint32(foot[8:]); got != want {
		return nil, fmt.Errorf("core: snapshot section table checksum mismatch at byte offset %d: got %#08x, want %#08x", tableOff, got, want)
	}
	secs := make([]v2Section, shards)
	next := uint64(v2HeaderSize)
	for i := range secs {
		o := i * v2TableEntrySize
		s := v2Section{
			off:     le.Uint64(table[o:]),
			length:  le.Uint64(table[o+8:]),
			edges:   le.Uint64(table[o+16:]),
			sources: le.Uint64(table[o+24:]),
			crc:     le.Uint32(table[o+32:]),
		}
		entry := tableOff + uint64(o)
		if s.off != next {
			return nil, fmt.Errorf("core: snapshot shard %d section at byte offset %d, want %d (table entry at byte offset %d)", i, s.off, next, entry)
		}
		// Bound every count before the length formula uses it: 12·count
		// wraps for a count near 2^62, and a crafted entry whose wrapped
		// formula matches would otherwise reach the loader's allocations.
		if s.length > tableOff-s.off || s.sources > s.length/12 || s.edges > s.length/12 {
			return nil, fmt.Errorf("core: snapshot shard %d section claims %d bytes, %d sources and %d edges, more than fit before the section table at byte offset %d (table entry at byte offset %d)", i, s.length, s.sources, s.edges, tableOff, entry)
		}
		if want := uint64(v2SectionHeadSize) + 12*s.sources + 12*s.edges; s.length != want {
			return nil, fmt.Errorf("core: snapshot shard %d section length %d does not match its counts (%d sources, %d edges need %d; table entry at byte offset %d)", i, s.length, s.sources, s.edges, want, entry)
		}
		secs[i] = s
		next = s.end()
	}
	if next != tableOff {
		return nil, fmt.Errorf("core: snapshot sections end at byte offset %d but the section table starts at %d", next, tableOff)
	}
	return secs, nil
}

// readV2Section reads and CRC-checks one section's bytes.
func readV2Section(ra io.ReaderAt, shard int, sec v2Section) ([]byte, error) {
	buf := make([]byte, sec.length)
	if _, err := ra.ReadAt(buf, int64(sec.off)); err != nil {
		return nil, fmt.Errorf("core: snapshot shard %d section truncated at byte offset %d: %w", shard, sec.off, err)
	}
	if got := crc32.Checksum(buf, snapCastagnoli); got != sec.crc {
		return nil, fmt.Errorf("core: snapshot shard %d section checksum mismatch (section spans byte offsets %d..%d): got %#08x, want %#08x", shard, sec.off, sec.end(), got, sec.crc)
	}
	return buf, nil
}

// decodeV2Runs walks a section's per-source runs, handing each to fn with
// a reused scratch slice (fn must not retain it). Offsets in errors are
// absolute file offsets.
func decodeV2Runs(buf []byte, shard int, sec v2Section, fn func(src uint64, run []Edge) error) error {
	le := binary.LittleEndian
	if got := le.Uint64(buf[0:]); got != sec.edges {
		return fmt.Errorf("core: snapshot shard %d section header declares %d edges but the table says %d (section at byte offset %d)", shard, got, sec.edges, sec.off)
	}
	if got := le.Uint64(buf[8:]); got != sec.sources {
		return fmt.Errorf("core: snapshot shard %d section header declares %d sources but the table says %d (section at byte offset %d)", shard, got, sec.sources, sec.off)
	}
	o := v2SectionHeadSize
	var run []Edge
	var edges uint64
	for s := uint64(0); s < sec.sources; s++ {
		if o+12 > len(buf) {
			return fmt.Errorf("core: snapshot shard %d run %d truncated at byte offset %d", shard, s, sec.off+uint64(o))
		}
		src := le.Uint64(buf[o:])
		deg := int(le.Uint32(buf[o+8:]))
		o += 12
		if deg == 0 || o+12*deg > len(buf) {
			return fmt.Errorf("core: snapshot shard %d source %d declares implausible degree %d at byte offset %d", shard, src, deg, sec.off+uint64(o)-4)
		}
		run = run[:0]
		for k := 0; k < deg; k++ {
			run = append(run, Edge{
				Src:    src,
				Dst:    le.Uint64(buf[o:]),
				Weight: math.Float32frombits(le.Uint32(buf[o+8:])),
			})
			o += 12
		}
		edges += uint64(deg)
		if err := fn(src, run); err != nil {
			return err
		}
	}
	if o != len(buf) || edges != sec.edges {
		return fmt.Errorf("core: snapshot shard %d section runs cover %d edges in %d bytes, table says %d edges in %d bytes", shard, edges, o, sec.edges, sec.length)
	}
	return nil
}

// decodeFlat is the one decoder for both legacy layouts, which past their
// headers are the same thing: per shard (GTK1 has exactly one) a u64
// record count, then that many 20-byte (src, dst, weightBits) records.
// insert gets every record in file order and reports whether the edge was
// new; a record that is not is a duplicate and fails the load.
func decodeFlat(f *snapshotFile, insert func(src, dst uint64, w float32) bool) error {
	le := binary.LittleEndian
	br := bufio.NewReader(io.NewSectionReader(f.ra, f.flatOff, f.size-f.flatOff))
	off := f.flatOff
	var rec [flatRecordSize]byte
	read := func(p []byte) error {
		n, err := io.ReadFull(br, p)
		off += int64(n)
		return err
	}
	for s := 0; s < f.shards; s++ {
		if err := read(rec[:8]); err != nil {
			return fmt.Errorf("core: snapshot shard %d edge count truncated at byte offset %d: %w", s, off, err)
		}
		count := le.Uint64(rec[:8])
		for i := uint64(0); i < count; i++ {
			if err := read(rec[:]); err != nil {
				return fmt.Errorf("core: snapshot shard %d edge %d of %d truncated at byte offset %d: %w", s, i, count, off, err)
			}
			src, dst := le.Uint64(rec[0:]), le.Uint64(rec[8:])
			if !insert(src, dst, math.Float32frombits(le.Uint32(rec[16:]))) {
				return fmt.Errorf("core: snapshot shard %d edge %d of %d (%d -> %d) at byte offset %d duplicates an earlier record", s, i, count, src, dst, off-flatRecordSize)
			}
		}
	}
	return nil
}
