package wal

// Tailer: a blocking reader over the live log, the shipping side of
// WAL-based replication. A tailer streams whole records, as the log wrote
// them, from the record holding a given LSN — a record that straddles the
// start position is returned whole, and the reader drops the prefix it
// already holds — and, once it reaches the durable frontier, blocks until
// the next fsync publishes more. It never reads past DurableLSN, so a
// follower can only ever learn state the primary would itself recover
// after a crash; flushed-but-unsynced bytes sitting in the segment file
// are invisible to it.
//
// Rotation handoff: records are LSN-contiguous across segments, so when
// a tailer hits EOF at a record boundary with the durable frontier ahead
// of it, the next record lives in the segment named after its own next
// LSN. Retention: each open tailer registers a low-water mark with the
// log; Prune clamps to the minimum mark, so a slow follower's unread
// tail is never deleted out from under it (at the cost of unbounded log
// growth until the tailer advances or closes).

import (
	"errors"
	"fmt"
	"io"
)

// ErrTailerStopped is returned by Next when the caller's stop channel
// closes before the next record becomes durable.
var ErrTailerStopped = errors.New("wal: tailer stopped")

// ErrTailPruned reports a tailer start position whose segment has already
// been pruned — the caller must bootstrap from a snapshot instead.
var ErrTailPruned = errors.New("wal: requested LSN already pruned")

// Tailer streams records from one log position onward. Not safe for
// concurrent use; each follower connection owns its own tailer.
type Tailer struct {
	l        *Log
	readerID uint64
	next     uint64 // LSN after the last record delivered (the start position before any)
	seg      segReader
	closed   bool
}

// NewTailer opens a tailer positioned at fromLSN. It fails with
// ErrTailPruned when the segment holding fromLSN is gone, and with an
// out-of-range error when fromLSN is beyond the end of the log. The
// returned tailer pins segments at or above fromLSN against Prune until
// it advances past them or closes.
func (l *Log) NewTailer(fromLSN uint64) (*Tailer, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if fromLSN > l.nextLSN {
		return nil, fmt.Errorf("wal: tailer at LSN %d but log ends at %d", fromLSN, l.nextLSN)
	}
	// Registration and the pruned-floor check share one critical section
	// with Prune, so a segment cannot vanish between the check and the
	// pin taking effect.
	segs, err := listSegments(l.dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 || segs[0].firstLSN > fromLSN {
		return nil, fmt.Errorf("wal: tailer at LSN %d: %w", fromLSN, ErrTailPruned)
	}
	l.readerSeq++
	id := l.readerSeq
	l.readers[id] = fromLSN
	return &Tailer{l: l, readerID: id, next: fromLSN}, nil
}

// Position returns the LSN after the last record delivered, or the start
// position before the first.
func (t *Tailer) Position() uint64 { return t.next }

// Close releases the tailer's retention pin and file handle. Idempotent.
func (t *Tailer) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.l.mu.Lock()
	delete(t.l.readers, t.readerID)
	t.l.mu.Unlock()
	return t.seg.close()
}

// Next returns the next durable record that ends past the tailer's
// position: its first LSN, its op count and its checked payload, the bytes
// Log.Append wrote (DecodeOps parses them). The first record may start
// below the position the tailer was opened at; it is returned whole. Next
// blocks until the log's durable frontier moves past the position, the
// stop channel closes (ErrTailerStopped), or the log closes with nothing
// left to drain (ErrClosed). A bad record below the frontier wraps
// ErrCorrupt. The payload is an internal buffer valid until the following
// Next call.
func (t *Tailer) Next(stop <-chan struct{}) (firstLSN uint64, count int, payload []byte, err error) {
	if t.closed {
		return 0, 0, nil, ErrTailerStopped
	}
	for {
		// Wait for the durable frontier to pass our position. A closed log
		// still drains: records below the frontier stay readable.
		if err := t.waitDurable(stop); err != nil {
			return 0, 0, nil, err
		}
		payload, firstLSN, count, err := t.read()
		if err != nil {
			return 0, 0, nil, err
		}
		end := firstLSN + uint64(count)
		if end <= t.next {
			continue // wholly below the start position: skip
		}
		t.next = end
		t.l.mu.Lock()
		t.l.readers[t.readerID] = end
		t.l.mu.Unlock()
		return firstLSN, count, payload, nil
	}
}

func (t *Tailer) waitDurable(stop <-chan struct{}) error {
	for {
		if t.l.durable.Load() > t.next {
			return nil
		}
		t.l.mu.Lock()
		if t.l.durable.Load() > t.next {
			t.l.mu.Unlock()
			return nil
		}
		if t.l.closed {
			t.l.mu.Unlock()
			return ErrClosed
		}
		ch := t.l.tailNotify
		t.l.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return ErrTailerStopped
		}
	}
}

// read reads the record at the tailer's offset, first opening the segment
// that holds t.next. Only called when durable > t.next, so that record is
// wholly on disk: a segment that ends at a record boundary hands off to
// the segment named after t.next (rotation), and anything else that fails
// the checks is corruption.
func (t *Tailer) read() (payload []byte, firstLSN uint64, count int, err error) {
	for rotated := false; ; rotated = true {
		if t.seg.f == nil {
			if err := t.openSegmentFor(t.next); err != nil {
				return nil, 0, 0, err
			}
		}
		payload, firstLSN, count, err = t.seg.read(nil)
		switch {
		case err == nil:
			return payload, firstLSN, count, nil
		case err != io.EOF:
			return nil, 0, 0, fmt.Errorf("wal: tailer: %w", err)
		case rotated:
			return nil, 0, 0, fmt.Errorf("wal: tailer: %s ends at LSN %d below the durable frontier: %w", t.seg.path, t.next, ErrCorrupt)
		}
		if err := t.seg.close(); err != nil {
			return nil, 0, 0, fmt.Errorf("wal: tailer rotate: %w", err)
		}
	}
}

// openSegmentFor opens the segment holding lsn at its first record;
// records below lsn are read and skipped one by one, which checks LSN
// continuity as it goes.
func (t *Tailer) openSegmentFor(lsn uint64) error {
	segs, err := listSegments(t.l.dir)
	if err != nil {
		return err
	}
	var seg *segInfo
	for i := range segs {
		if segs[i].firstLSN > lsn {
			break
		}
		seg = &segs[i]
	}
	if seg == nil {
		return fmt.Errorf("wal: tailer at LSN %d: %w", lsn, ErrTailPruned)
	}
	if err := t.seg.open(seg.path, seg.firstLSN); err != nil {
		return fmt.Errorf("wal: tailer: %w", err)
	}
	return nil
}
