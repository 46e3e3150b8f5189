// Package wal is a segmented, checksummed write-ahead log of edge
// operations — the durability substrate under the streaming ingestion
// pipeline and the session batch path.
//
// Model: the log is an ordered sequence of edge ops, numbered by LSN
// (log sequence number = the global index of an op in the stream). Each
// Append writes one record holding a contiguous op run [firstLSN,
// firstLSN+count). Records carry a CRC32-C over their payload, so torn or
// corrupt tails are detected and truncated on Open; a record is either
// wholly durable or not in the log at all. Because appends happen in
// stream order, the log's content is always an exact prefix of the
// acknowledged op stream — the invariant recovery and the chaos
// differential tests lean on.
//
// Durability: Append buffers; data is durable only after fsync. The sync
// policy is group commit — SyncInterval > 0 runs a background flusher so
// appends amortize one fsync per interval, SyncInterval == 0 syncs every
// append, and SyncInterval < 0 syncs only on explicit Sync/Close (callers
// then sync at their acknowledgment barrier).
//
// Layout: dir/<firstLSN as %016x>.wal segments, rotated at SegmentBytes;
// Prune removes segments wholly below a checkpoint LSN.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphtinker/internal/core"
	"graphtinker/internal/faultinject"
)

const (
	segMagic   = uint32(0x4754574c) // "GTWL"
	segVersion = uint16(1)
	// headerSize is the segment header: magic u32, version u16, reserved
	// u16, firstLSN u64.
	headerSize = 16
	// recordHeaderSize prefixes every record: payload length u32, CRC32-C
	// of the payload u32.
	recordHeaderSize = 8
	// recordMetaSize leads every payload: firstLSN u64, op count u32.
	recordMetaSize = 12
	// opSize is one encoded op: flags u8, src u64, dst u64, weight u32.
	opSize = 21

	segSuffix = ".wal"
)

// DefaultSegmentBytes is the default rotation threshold.
const DefaultSegmentBytes = 16 << 20

// MaxRecordOps bounds ops per record; callers split larger appends. The
// bound keeps replay allocations sane in the face of corrupt length
// fields.
const MaxRecordOps = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt reports corruption that torn-tail truncation cannot repair —
// a bad record in the interior of the log (not the last segment's tail).
var ErrCorrupt = errors.New("wal: corrupt segment")

// ErrFailed reports a log whose tail may be torn by an earlier failed
// write. Appending past a torn tail would bury the tear in the interior of
// the segment, turning a recoverable truncation into unrecoverable
// corruption — so once a write may have landed partially, the log refuses
// further appends. Recovery path: Close (or Crash) and Open again; Open
// truncates the tear.
var ErrFailed = errors.New("wal: log failed (possibly torn tail); reopen to recover")

// Options configures a log; zero values select the defaults.
type Options struct {
	// SegmentBytes is the rotation threshold (default 16 MiB).
	SegmentBytes int64
	// SyncInterval selects the group-commit policy: 0 syncs every append,
	// > 0 runs a background flusher at that period, < 0 syncs only on
	// explicit Sync/Close.
	SyncInterval time.Duration
	// InitialLSN positions an empty log's first segment at this LSN — a
	// replication follower bootstrapping from a snapshot at LSN n starts
	// its log at n, keeping the manifest↔log continuity invariant without
	// holding the [0, n) prefix. Ignored when the directory already holds
	// segments.
	InitialLSN uint64
	// Recorder, when non-nil, receives fsync-latency/segment-byte/replay
	// telemetry.
	Recorder *Recorder
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	rec  *Recorder

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	segStart uint64 // first LSN of the current segment
	segBytes int64
	nextLSN  uint64
	encBuf   []byte // record staging buffer, reused across appends (under mu)
	dirty    bool
	closed   bool
	failed   bool // a write may have landed partially; appends refused

	// durable is the LSN after the last op covered by a successful
	// flush+fsync — the position tailers may read up to. It always sits on
	// a record boundary (syncs cover whole records). Written under mu,
	// read lock-free by tailers.
	durable atomic.Uint64
	// tailNotify is closed and replaced (under mu) whenever durable
	// advances or the log closes, waking blocked tailers.
	tailNotify chan struct{}
	// readers maps registered reader ids to their low-water LSN: Prune
	// never removes a segment holding records at or above any mark, so a
	// tailer's unread tail cannot be deleted out from under it.
	readers   map[uint64]uint64
	readerSeq uint64

	stop, done chan struct{} // background flusher lifecycle (nil when none)
}

// Open opens (or creates) the log in dir, scanning existing segments to
// validate checksums, truncate any torn tail on the last segment, and
// position the next append after the last durable record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:        dir,
		opts:       opts,
		rec:        opts.Recorder,
		tailNotify: make(chan struct{}),
		readers:    make(map[uint64]uint64),
	}

	// Validate every segment; only the last may have a torn tail. Segments
	// must also be LSN-contiguous — each one starts exactly where the
	// previous ends — or a missing middle segment would silently skip a run
	// of ops during recovery.
	recreated := false
	for i, seg := range segs {
		last := i == len(segs)-1
		if i > 0 && seg.firstLSN != l.nextLSN {
			return nil, fmt.Errorf("wal: %s: segment starts at LSN %d but previous segment ends at LSN %d (missing segment?): %w",
				seg.path, seg.firstLSN, l.nextLSN, ErrCorrupt)
		}
		end, next, err := scanSegment(seg.path, seg.firstLSN, nil)
		if err != nil {
			if !last {
				return nil, err
			}
			var serr *tailError
			if !errors.As(err, &serr) {
				return nil, err
			}
			st, err := os.Stat(seg.path)
			if err != nil {
				return nil, fmt.Errorf("wal: stat segment: %w", err)
			}
			if l.rec != nil {
				l.rec.TruncatedBytes.Add(uint64(st.Size() - serr.goodEnd))
			}
			if serr.goodEnd < headerSize {
				// The segment header itself is torn (crash between segment
				// creation and the header write during rotation). Merely
				// truncating would leave a headerless file that appends
				// extend and the next Open rejects as corrupt — recreate
				// the segment so a valid header precedes any record.
				if err := l.openSegmentLocked(seg.firstLSN); err != nil {
					return nil, err
				}
				l.nextLSN = seg.firstLSN
				recreated = true
				break
			}
			// Torn tail: truncate back to the last whole record.
			if terr := os.Truncate(seg.path, serr.goodEnd); terr != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, terr)
			}
			end, next = serr.goodEnd, serr.nextLSN
		}
		l.nextLSN = next
		if last {
			l.segStart = seg.firstLSN
			l.segBytes = end
		}
	}

	if len(segs) == 0 {
		if err := l.openSegmentLocked(opts.InitialLSN); err != nil {
			return nil, err
		}
		l.nextLSN = opts.InitialLSN
	} else if !recreated {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen %s: %w", last.path, err)
		}
		if _, err := f.Seek(l.segBytes, 0); err != nil {
			_ = f.Close() // abandoning reopen; the seek error is the signal
			return nil, fmt.Errorf("wal: seek %s: %w", last.path, err)
		}
		l.f = f
		l.bw = bufio.NewWriterSize(f, 1<<16)
	}

	// Everything recovered from disk already survived at least one process
	// lifetime; tailers may ship it immediately.
	l.durable.Store(l.nextLSN)

	if opts.SyncInterval > 0 {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.runFlusher()
	}
	return l, nil
}

// openSegmentLocked creates and switches to a fresh segment whose first
// LSN is firstLSN. Caller holds l.mu (or is initializing).
func (l *Log) openSegmentLocked(firstLSN uint64) error {
	path := filepath.Join(l.dir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var head [headerSize]byte
	le := binary.LittleEndian
	le.PutUint32(head[0:], segMagic)
	le.PutUint16(head[4:], segVersion)
	le.PutUint64(head[8:], firstLSN)
	if _, err := f.Write(head[:]); err != nil {
		_ = f.Close() // abandoning the segment; the write error is the signal
		return fmt.Errorf("wal: segment header: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segStart = firstLSN
	l.segBytes = headerSize
	if l.rec != nil {
		l.rec.SegmentsCreated.Inc()
	}
	return nil
}

func segName(firstLSN uint64) string { return fmt.Sprintf("%016x%s", firstLSN, segSuffix) }

// NextLSN returns the LSN the next appended op will receive — equivalently
// the number of ops the log has accepted so far.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Append writes one record holding ops (in order) and returns the first
// op's LSN. The record is buffered; it is durable once Sync (or the group
// commit flusher, or a 0 SyncInterval) has fsynced past it. Appends larger
// than MaxRecordOps are split into multiple records. The ops slice is
// only read during the call — callers may hand in a reused buffer.
//
//gtlint:noretain ops
func (l *Log) Append(ops []core.EdgeOp) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed {
		return 0, ErrFailed
	}
	first := l.nextLSN
	for len(ops) > 0 {
		n := len(ops)
		if n > MaxRecordOps {
			n = MaxRecordOps
		}
		//gtlint:ignore lockhold group commit: rotation fsyncs the old segment under l.mu so appends serialized behind it ride the same barrier
		if err := l.appendRecordLocked(ops[:n]); err != nil {
			return first, err
		}
		ops = ops[n:]
	}
	if l.opts.SyncInterval == 0 {
		//gtlint:ignore lockhold group commit: sync-every-append mode fsyncs under l.mu so concurrent appends batch behind one barrier
		if err := l.syncLocked(); err != nil {
			return first, err
		}
	}
	return first, nil
}

// appendRecordLocked stages header and payload contiguously in the reused
// encode buffer and hands the whole record to the segment writer in one
// write — so appends allocate nothing in steady state and each record
// reaches the buffered writer as a single coalesced span (the group-commit
// window then drains as one large write per flush, not one per field).
//
//gtlint:noretain ops
func (l *Log) appendRecordLocked(ops []core.EdgeOp) error {
	if err := faultinject.Inject("wal/append"); err != nil {
		return err
	}
	recLen := int64(recordHeaderSize + recordMetaSize + opSize*len(ops))
	if l.segBytes > headerSize && l.segBytes+recLen > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if int64(cap(l.encBuf)) < recLen {
		l.encBuf = make([]byte, recLen)
	}
	rec := l.encBuf[:recLen]
	payload := rec[recordHeaderSize:]
	encodePayloadInto(payload, l.nextLSN, ops)
	le := binary.LittleEndian
	le.PutUint32(rec[0:], uint32(len(payload)))
	le.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))

	if err := faultinject.Inject("wal/append-partial"); err != nil {
		// Simulate a torn write: half the record reaches the file, then
		// the "process dies" from the log's point of view. Flush straight
		// through the buffer so the torn bytes are really in the file.
		torn := rec[:len(rec)/2]
		l.bw.Write(torn)
		_ = l.bw.Flush() // simulating a crash; a flush error only helps the simulation
		l.segBytes += int64(len(torn))
		l.failed = true
		return err
	}

	if _, err := l.bw.Write(rec); err != nil {
		l.failed = true
		return fmt.Errorf("wal: append: %w", err)
	}
	l.segBytes += recLen
	l.nextLSN += uint64(len(ops))
	l.dirty = true
	if l.rec != nil {
		l.rec.AppendedRecords.Inc()
		l.rec.AppendedOps.Add(uint64(len(ops)))
		l.rec.AppendedBytes.Add(uint64(recLen))
		l.rec.SegmentBytes.Set(l.segBytes)
	}
	return nil
}

// rotateLocked syncs and closes the current segment and opens the next.
func (l *Log) rotateLocked() error {
	if err := faultinject.Inject("wal/rotate"); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	return l.openSegmentLocked(l.nextLSN)
}

// Sync makes every appended record durable: it flushes the buffer and
// fsyncs the current segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	//gtlint:ignore lockhold group commit: the durability barrier holds l.mu so every append that raced in is covered by this fsync
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := faultinject.Inject("wal/fsync"); err != nil {
		return err
	}
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if !l.dirty {
		l.advanceDurableLocked()
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	if l.rec != nil {
		l.rec.FsyncLatency.ObserveDuration(time.Since(start))
		l.rec.Fsyncs.Inc()
	}
	l.advanceDurableLocked()
	return nil
}

// advanceDurableLocked publishes the current append position as durable
// and wakes blocked tailers. Caller holds l.mu after a successful
// flush+fsync (or when nothing was pending).
func (l *Log) advanceDurableLocked() {
	if l.durable.Load() == l.nextLSN {
		return
	}
	l.durable.Store(l.nextLSN)
	close(l.tailNotify)
	l.tailNotify = make(chan struct{})
}

// DurableLSN returns the LSN after the last fsynced op — the position a
// tailer may stream up to. Lock-free.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

func (l *Log) runFlusher() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				// Group commit: one fsync covers every append since the
				// last tick. Errors surface on the next explicit
				// Sync/Append; the flusher itself has no caller to tell.
				//gtlint:ignore lockhold group commit: the periodic flusher's fsync under l.mu is the commit point appends batch behind
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	//gtlint:ignore lockhold shutdown: the final fsync must exclude appends, and closed=true bounds the wait to one barrier
	err := l.syncLocked()
	cerr := l.f.Close()
	close(l.tailNotify) // wake tailers so they observe closed
	l.tailNotify = make(chan struct{})
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	if err != nil {
		return err
	}
	return cerr
}

// Crash abandons the log the way a killed process would: open buffers are
// discarded (never flushed), nothing is fsynced, and the file handle is
// dropped. Only data that already reached the file survives a subsequent
// Open. Built for the chaos suite; safe (if pointless) in production.
func (l *Log) Crash() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		_ = l.f.Close()     // deliberately without flushing l.bw; errors are part of the crash
		close(l.tailNotify) // wake tailers so they observe the crash
		l.tailNotify = make(chan struct{})
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
}

// Prune removes segments every record of which is below uptoLSN — called
// after a checkpoint at uptoLSN makes the prefix redundant. The segment
// containing uptoLSN (and everything after) is kept, as is any segment
// holding records at or above a registered reader's low-water mark: a
// replication tailer mid-catch-up pins its unread tail in place.
func (l *Log) Prune(uptoLSN uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	for _, mark := range l.readers {
		if mark < uptoLSN {
			uptoLSN = mark
		}
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(segs); i++ {
		// A segment's records all precede the next segment's firstLSN.
		if segs[i+1].firstLSN > uptoLSN {
			break
		}
		if segs[i].firstLSN == l.segStart {
			break // never remove the active segment
		}
		if err := os.Remove(segs[i].path); err != nil {
			return removed, fmt.Errorf("wal: prune: %w", err)
		}
		removed++
		if l.rec != nil {
			l.rec.SegmentsPruned.Inc()
		}
	}
	return removed, nil
}

// Segments reports the current on-disk segment count (telemetry/tests).
func (l *Log) Segments() (int, error) {
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	return len(segs), nil
}

type segInfo struct {
	path     string
	firstLSN uint64
}

// listSegments returns dir's segments sorted by first LSN.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, name), firstLSN: lsn})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// encodePayloadInto serializes one record payload — firstLSN, count, ops —
// into payload, which must be exactly recordMetaSize+opSize*len(ops) long.
// Both slices belong to the caller: payload is typically a reused append
// buffer and ops a recycled sub-batch, so neither may outlive the call.
//
//gtlint:noretain payload,ops
func encodePayloadInto(payload []byte, firstLSN uint64, ops []core.EdgeOp) {
	le := binary.LittleEndian
	le.PutUint64(payload[0:], firstLSN)
	le.PutUint32(payload[8:], uint32(len(ops)))
	off := recordMetaSize
	for _, op := range ops {
		if op.Del {
			payload[off] = 1
		} else {
			payload[off] = 0
		}
		le.PutUint64(payload[off+1:], op.Src)
		le.PutUint64(payload[off+9:], op.Dst)
		le.PutUint32(payload[off+17:], floatBits(op.Weight))
		off += opSize
	}
}
