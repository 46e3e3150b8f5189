package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"graphtinker/internal/core"
)

// buildSegment encodes a valid segment holding the given records (used to
// seed the fuzzer with well-formed inputs it can mutate).
func buildSegment(firstLSN uint64, recs ...[]core.EdgeOp) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	var head [headerSize]byte
	le.PutUint32(head[0:], segMagic)
	le.PutUint16(head[4:], segVersion)
	le.PutUint64(head[8:], firstLSN)
	buf.Write(head[:])
	lsn := firstLSN
	for _, ops := range recs {
		payload := make([]byte, recordMetaSize+opSize*len(ops))
		encodePayloadInto(payload, lsn, ops)
		var rh [recordHeaderSize]byte
		le.PutUint32(rh[0:], uint32(len(payload)))
		le.PutUint32(rh[4:], crc32.Checksum(payload, castagnoli))
		buf.Write(rh[:])
		buf.Write(payload)
		lsn += uint64(len(ops))
	}
	return buf.Bytes()
}

// FuzzWALReplay feeds arbitrary bytes to the segment parser as the first
// segment of a log. Replay must never panic, must only yield in-order
// LSN-contiguous ops, and whatever prefix it accepts must survive an
// Open (torn-tail truncation) + second Replay unchanged.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildSegment(0))
	f.Add(buildSegment(0, []core.EdgeOp{core.InsertOp(1, 2, 3)}))
	f.Add(buildSegment(0,
		[]core.EdgeOp{core.InsertOp(1, 2, 3), core.DeleteOp(1, 2)},
		[]core.EdgeOp{core.InsertOp(7, 8, 0.5)},
	))
	// A torn tail: a valid record followed by half of another.
	whole := buildSegment(0, []core.EdgeOp{core.InsertOp(1, 2, 3)}, []core.EdgeOp{core.InsertOp(4, 5, 6)})
	f.Add(whole[:len(whole)-10])
	// Corrupt checksum on the second record.
	mut := append([]byte(nil), whole...)
	mut[len(mut)-3] ^= 0xff
	f.Add(mut)
	// Implausible record length.
	big := buildSegment(0)
	big = append(big, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4)
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Skip()
		}
		var first []core.EdgeOp
		wantLSN := uint64(0)
		next, err := Replay(dir, 0, nil, func(lsn uint64, ops []core.EdgeOp) error {
			if lsn != wantLSN {
				t.Fatalf("replay skipped LSNs: record at %d, want %d", lsn, wantLSN)
			}
			wantLSN += uint64(len(ops))
			first = append(first, ops...)
			return nil
		})
		if err != nil {
			return // rejected as corrupt: fine, as long as no panic
		}
		if next != wantLSN {
			t.Fatalf("Replay returned next=%d, streamed to %d", next, wantLSN)
		}

		// Open must accept the same prefix (truncating any torn tail)
		// and a re-replay must reproduce it exactly.
		l, err := Open(dir, Options{})
		if err != nil {
			return // interior corruption Open rejects; Replay tolerated tail-only
		}
		if got := l.NextLSN(); got != next {
			t.Fatalf("Open.NextLSN=%d, Replay saw %d", got, next)
		}
		l.Close()
		var second []core.EdgeOp
		if _, err := Replay(dir, 0, nil, func(lsn uint64, ops []core.EdgeOp) error {
			second = append(second, ops...)
			return nil
		}); err != nil {
			t.Fatalf("replay after truncation: %v", err)
		}
		if len(second) != len(first) {
			t.Fatalf("replay after truncation yielded %d ops, want %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("op %d changed across truncation", i)
			}
		}
	})
}
