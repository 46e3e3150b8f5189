package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"graphtinker/internal/core"
)

// tailError reports a segment whose tail could not be validated: a torn or
// corrupt record at goodEnd. Open truncates to goodEnd when the segment is
// the last one; anywhere else it is unrecoverable corruption.
type tailError struct {
	path    string
	goodEnd int64  // byte offset of the last whole valid record's end
	nextLSN uint64 // LSN after the last valid record
	reason  string
}

func (e *tailError) Error() string {
	return fmt.Sprintf("wal: %s: %s at byte offset %d: %v", e.path, e.reason, e.goodEnd, ErrCorrupt)
}

func (e *tailError) Unwrap() error { return ErrCorrupt }

// segReader reads one segment's records in order. It is the one record
// reader: Open's integrity scan, Replay and the Tailer all check a record
// through it, one header read and one payload read per record, and each
// caller decides what a failure means (a truncatable tail on the last
// segment at Open, corruption below the durable frontier for a tailer).
type segReader struct {
	f       *os.File // nil when no segment is open
	path    string
	off     int64  // byte offset of the next record
	next    uint64 // LSN the next record must start at
	hdr     [recordHeaderSize]byte
	payload []byte // reused across records and segments
}

// open points r at the segment file path, whose header must name
// firstLSN, positioned at its first record. A header cut short is a
// *tailError at offset 0; any other bad header wraps ErrCorrupt.
func (r *segReader) open(path string, firstLSN uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	r.f, r.path, r.off, r.next = f, path, 0, firstLSN
	var head [headerSize]byte
	if _, rerr := f.ReadAt(head[:], 0); rerr != nil {
		err = r.bad("torn segment header")
	} else if le := binary.LittleEndian; le.Uint32(head[0:]) != segMagic {
		err = fmt.Errorf("wal: %s: bad magic: %w", path, ErrCorrupt)
	} else if v := le.Uint16(head[4:]); v != segVersion {
		err = fmt.Errorf("wal: %s: unsupported version %d: %w", path, v, ErrCorrupt)
	} else if got := le.Uint64(head[8:]); got != firstLSN {
		err = fmt.Errorf("wal: %s: header LSN %d does not match name LSN %d: %w", path, got, firstLSN, ErrCorrupt)
	}
	if err != nil {
		_ = r.close() // abandoning the segment; the header error is the signal
		return err
	}
	r.off = headerSize
	return nil
}

// close releases the open segment, if any.
func (r *segReader) close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// read checks the record at r's offset — length bound, CRC-32C, payload
// structure, LSN continuity — and returns its payload (valid until the
// next read), first LSN and op count. With out non-nil it also decodes
// the ops into *out, reusing its capacity. io.EOF means the segment ends
// at a record boundary; any bad record is a *tailError at r's offset.
func (r *segReader) read(out *[]core.EdgeOp) (payload []byte, firstLSN uint64, count int, err error) {
	if n, rerr := r.f.ReadAt(r.hdr[:], r.off); rerr != nil {
		if n == 0 && rerr == io.EOF {
			return nil, 0, 0, io.EOF
		}
		return nil, 0, 0, r.bad("torn record header")
	}
	le := binary.LittleEndian
	plen := le.Uint32(r.hdr[0:])
	if plen < recordMetaSize || plen > recordMetaSize+opSize*MaxRecordOps {
		return nil, 0, 0, r.bad(fmt.Sprintf("implausible record length %d", plen))
	}
	if cap(r.payload) < int(plen) {
		r.payload = make([]byte, plen)
	}
	payload = r.payload[:plen]
	if _, rerr := r.f.ReadAt(payload, r.off+recordHeaderSize); rerr != nil {
		return nil, 0, 0, r.bad("torn record payload")
	}
	if crc32.Checksum(payload, castagnoli) != le.Uint32(r.hdr[4:]) {
		return nil, 0, 0, r.bad("record checksum mismatch")
	}
	firstLSN, count, derr := decodePayloadInto(payload, out)
	if derr != nil {
		return nil, 0, 0, r.bad(derr.Error())
	}
	if firstLSN != r.next {
		return nil, 0, 0, r.bad(fmt.Sprintf("record LSN %d, want %d", firstLSN, r.next))
	}
	r.off += recordHeaderSize + int64(plen)
	r.next += uint64(count)
	return payload, firstLSN, count, nil
}

func (r *segReader) bad(reason string) error {
	return &tailError{path: r.path, goodEnd: r.off, nextLSN: r.next, reason: reason}
}

// scanSegment validates one segment file, optionally streaming each
// record's decoded ops to fn. It returns the byte offset after the last
// valid record and the next LSN. A torn/corrupt tail is reported as a
// *tailError carrying how much of the file is good.
//
// The ops buffer is reused across records, so fn must not retain the
// slice past its return (every caller partitions or applies in place).
// With fn nil the records are validated without materialising ops at all
// — the allocation-free path Open's integrity scan takes.
func scanSegment(path string, wantFirstLSN uint64, fn func(firstLSN uint64, ops []core.EdgeOp) error) (end int64, nextLSN uint64, err error) {
	var r segReader
	if err := r.open(path, wantFirstLSN); err != nil {
		return 0, 0, err
	}
	defer func() { _ = r.close() }() // read-only scan; corruption detection is the signal
	var ops []core.EdgeOp
	var opsOut *[]core.EdgeOp
	if fn != nil {
		opsOut = &ops
	}
	for {
		_, firstLSN, _, err := r.read(opsOut)
		if err == io.EOF {
			return r.off, r.next, nil
		}
		if err != nil {
			return 0, 0, err
		}
		if fn != nil {
			if err := fn(firstLSN, ops); err != nil {
				return 0, 0, err
			}
		}
	}
}

// DecodeOps parses a record payload — the bytes Log.Append wrote and a
// Tailer returns — into ops, reusing the capacity of the ops passed in.
// Replication's follower decodes every shipped record into one buffer.
func DecodeOps(payload []byte, ops []core.EdgeOp) (uint64, []core.EdgeOp, error) {
	firstLSN, _, err := decodePayloadInto(payload, &ops)
	return firstLSN, ops, err
}

// decodePayloadInto validates a record payload and, when out is non-nil,
// decodes its ops into *out reusing the slice's capacity. With out nil it
// only validates (meta bounds, exact length, per-op flags) without
// materialising the ops. Returns the record's first LSN and op count.
func decodePayloadInto(payload []byte, out *[]core.EdgeOp) (uint64, int, error) {
	le := binary.LittleEndian
	if len(payload) < recordMetaSize {
		return 0, 0, errors.New("short record payload")
	}
	firstLSN := le.Uint64(payload[0:])
	count := int(le.Uint32(payload[8:]))
	if count > MaxRecordOps {
		return 0, 0, fmt.Errorf("implausible op count %d", count)
	}
	if want := recordMetaSize + opSize*count; len(payload) != want {
		return 0, 0, fmt.Errorf("payload is %d bytes, want %d for %d ops", len(payload), want, count)
	}
	off := recordMetaSize
	if out == nil {
		for i := 0; i < count; i++ {
			if flags := payload[off]; flags > 1 {
				return 0, 0, fmt.Errorf("op %d: bad flags %#x", i, flags)
			}
			off += opSize
		}
		return firstLSN, count, nil
	}
	ops := (*out)[:0]
	if cap(ops) < count {
		ops = make([]core.EdgeOp, 0, count)
	}
	for i := 0; i < count; i++ {
		flags := payload[off]
		if flags > 1 {
			return 0, 0, fmt.Errorf("op %d: bad flags %#x", i, flags)
		}
		ops = append(ops, core.EdgeOp{
			Edge: core.Edge{
				Src:    le.Uint64(payload[off+1:]),
				Dst:    le.Uint64(payload[off+9:]),
				Weight: floatFrom(le.Uint32(payload[off+17:])),
			},
			Del: flags == 1,
		})
		off += opSize
	}
	*out = ops
	return firstLSN, count, nil
}

// Replay streams the log's ops at or beyond fromLSN, in order, to fn. A
// record straddling fromLSN is applied from its offset — never twice, the
// property that makes snapshot + tail replay idempotent. A torn tail on
// the last segment ends the replay cleanly (Open would truncate it);
// corruption anywhere else returns an error wrapping ErrCorrupt. It
// returns the LSN after the last replayed op.
//
// Segments whose whole LSN range sits below fromLSN — proven by the NEXT
// segment's name carrying a first LSN ≤ fromLSN — are skipped without
// being opened: everything in them is covered by the checkpoint the
// caller is replaying from. (Open already byte-validated every segment;
// Replay's job is only to stream the uncovered tail.)
//
// The ops slice passed to fn is reused between records; fn must not
// retain it past its return.
func Replay(dir string, fromLSN uint64, rec *Recorder, fn func(lsn uint64, ops []core.EdgeOp) error) (uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return fromLSN, err
	}
	next := fromLSN
	var prevEnd uint64
	for i, seg := range segs {
		last := i == len(segs)-1
		// Cross-segment continuity: a gap means a middle segment is missing
		// (deleted or lost), and replaying past it would silently skip a
		// run of ops — corruption, not a recoverable tail.
		if i > 0 && seg.firstLSN != prevEnd {
			return next, fmt.Errorf("wal: %s: segment starts at LSN %d but previous segment ends at LSN %d (missing segment?): %w",
				seg.path, seg.firstLSN, prevEnd, ErrCorrupt)
		}
		if !last && segs[i+1].firstLSN <= fromLSN {
			// Every LSN in this segment is below the next segment's first
			// LSN, hence ≤ fromLSN: wholly covered. Skip without opening.
			prevEnd = segs[i+1].firstLSN
			continue
		}
		_, segNext, err := scanSegment(seg.path, seg.firstLSN, func(firstLSN uint64, ops []core.EdgeOp) error {
			opsEnd := firstLSN + uint64(len(ops))
			if opsEnd <= fromLSN {
				return nil // wholly before the checkpoint: skip, never re-apply
			}
			if firstLSN < fromLSN {
				ops = ops[fromLSN-firstLSN:] // straddling record: apply the tail only
				firstLSN = fromLSN
			}
			if rec != nil {
				rec.ReplayedRecords.Inc()
				rec.ReplayedOps.Add(uint64(len(ops)))
			}
			if err := fn(firstLSN, ops); err != nil {
				return err
			}
			next = opsEnd
			return nil
		})
		if err != nil {
			var terr *tailError
			if last && errors.As(err, &terr) {
				// Torn tail: everything before it already streamed.
				return next, nil
			}
			return next, err
		}
		if segNext > next && segNext > fromLSN {
			next = segNext
		}
		prevEnd = segNext
	}
	return next, nil
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }

func floatFrom(b uint32) float32 { return math.Float32frombits(b) }
