package wal

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"graphtinker/internal/core"
)

// mockTarget is a ReplayTarget that records per-(src,dst) apply order and
// final weights. Replay feeds it one ApplyOps call at a time; it fails a
// call that overlaps another. How a sharded target spreads one call is
// core.Parallel's contract, tested there.
type mockTarget struct {
	n      int
	busy   atomic.Bool
	state  map[[2]uint64]float32 // final weight, deleted = absent
	order  map[[2]uint64][]core.EdgeOp
	errmsg string
}

func newMockTarget(n int) *mockTarget {
	return &mockTarget{
		n:     n,
		state: make(map[[2]uint64]float32),
		order: make(map[[2]uint64][]core.EdgeOp),
	}
}

func (m *mockTarget) NumShards() int { return m.n }

func (m *mockTarget) ApplyOps(ops []core.EdgeOp) (inserted, deleted int) {
	if !m.busy.CompareAndSwap(false, true) {
		m.errmsg = "concurrent ApplyOps calls"
		return 0, 0
	}
	defer m.busy.Store(false)
	for _, op := range ops {
		k := [2]uint64{op.Src, op.Dst}
		m.order[k] = append(m.order[k], op)
		if op.Del {
			if _, ok := m.state[k]; ok {
				deleted++
			}
			delete(m.state, k)
		} else {
			if _, ok := m.state[k]; !ok {
				inserted++
			}
			m.state[k] = op.Weight
		}
	}
	return inserted, deleted
}

// writeLog appends ops in records of recSize and closes the log.
func writeLog(t *testing.T, dir string, ops []core.EdgeOp, recSize int, o Options) {
	t.Helper()
	l, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ops); i += recSize {
		end := i + recSize
		if end > len(ops) {
			end = len(ops)
		}
		if _, err := l.Append(ops[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayIntoMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ops := genOps(20000, 11)
			writeLog(t, dir, ops, 257, Options{})

			// The pipelined run under test.
			m := newMockTarget(shards)
			next, err := ReplayInto(dir, 0, nil, m)
			if err != nil {
				t.Fatal(err)
			}
			if m.errmsg != "" {
				t.Fatal(m.errmsg)
			}
			if next != uint64(len(ops)) {
				t.Fatalf("ReplayInto returned LSN %d, want %d", next, len(ops))
			}

			// The op-by-op oracle: same ops folded sequentially.
			state := make(map[[2]uint64]float32)
			order := make(map[[2]uint64][]core.EdgeOp)
			for _, op := range ops {
				k := [2]uint64{op.Src, op.Dst}
				order[k] = append(order[k], op)
				if op.Del {
					delete(state, k)
				} else {
					state[k] = op.Weight
				}
			}
			if len(m.state) != len(state) {
				t.Fatalf("pipelined state has %d edges, oracle %d", len(m.state), len(state))
			}
			for k, w := range state {
				if m.state[k] != w {
					t.Fatalf("edge %v: pipelined %g, oracle %g", k, m.state[k], w)
				}
			}
			// Per-(src,dst) apply order is the replay's only ordering
			// contract; it must survive the batching exactly.
			for k, want := range order {
				got := m.order[k]
				if len(got) != len(want) {
					t.Fatalf("key %v: %d ops applied, want %d", k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("key %v op %d: applied %+v, want %+v", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestReplayIntoFromMidLog(t *testing.T) {
	dir := t.TempDir()
	ops := genOps(5000, 13)
	writeLog(t, dir, ops, 100, Options{})
	from := uint64(2350) // mid-record: the straddling record must be sliced

	m := newMockTarget(4)
	next, err := ReplayInto(dir, from, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if next != uint64(len(ops)) {
		t.Fatalf("next LSN %d, want %d", next, len(ops))
	}
	applied := 0
	for _, seq := range m.order {
		applied += len(seq)
	}
	if applied != len(ops)-int(from) {
		t.Fatalf("applied %d ops from LSN %d, want %d", applied, from, len(ops)-int(from))
	}
}

// TestReplaySkipsCoveredSegments pins the segment-skip optimisation by
// construction: segments wholly below fromLSN are corrupted on disk, so
// the only way the tail replay can succeed is by never opening them.
func TestReplaySkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	ops := genOps(6000, 17)
	// Tiny segments: ~21 bytes/op, so 4 KiB rolls every ~190 ops.
	writeLog(t, dir, ops, 64, Options{SegmentBytes: 4096})

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("only %d segments; the skip test needs several", len(segs))
	}
	// Checkpoint position: the first LSN of the second-to-last segment.
	// Every segment before it is wholly covered.
	from := segs[len(segs)-2].firstLSN

	// Trash the bodies of all covered segments (keep the 16-byte header's
	// magic so an accidental open fails on content, deterministically).
	for _, seg := range segs[:len(segs)-2] {
		raw, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		for i := headerSize; i < len(raw); i++ {
			raw[i] ^= 0xa5
		}
		if err := os.WriteFile(seg.path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Replay from the checkpoint: must succeed without touching the
	// corrupted segments, and deliver exactly the tail.
	var got []core.EdgeOp
	next, err := Replay(dir, from, nil, func(lsn uint64, rec []core.EdgeOp) error {
		got = append(got, rec...)
		return nil
	})
	if err != nil {
		t.Fatalf("tail replay opened a covered segment: %v", err)
	}
	if next != uint64(len(ops)) {
		t.Fatalf("next LSN %d, want %d", next, len(ops))
	}
	if want := ops[from:]; len(got) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(got), len(want))
	}

	// A full replay MUST open them — and fail. This is the proof the
	// segments really are corrupt, i.e. the success above came from the
	// skip, not from luck.
	if _, err := Replay(dir, 0, nil, func(uint64, []core.EdgeOp) error { return nil }); err == nil {
		t.Fatal("full replay over corrupted covered segments succeeded; skip test proves nothing")
	}
}

// TestReplayIntoSharded replays one log into a four-shard core.Parallel
// and into a lone graph through Replay: the edge sets must match.
func TestReplayIntoSharded(t *testing.T) {
	dir := t.TempDir()
	ops := genOps(30000, 29)
	writeLog(t, dir, ops, 300, Options{})

	p, err := core.NewParallel(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayInto(dir, 0, nil, p); err != nil {
		t.Fatal(err)
	}
	g := core.MustNew(core.DefaultConfig())
	if _, err := Replay(dir, 0, nil, func(_ uint64, rec []core.EdgeOp) error {
		g.ApplyOps(rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != g.NumEdges() {
		t.Fatalf("sharded replay holds %d edges, lone graph %d", p.NumEdges(), g.NumEdges())
	}
	g.ForEachEdge(func(src, dst uint64, w float32) bool {
		if got, ok := p.FindEdge(src, dst); !ok || got != w {
			t.Fatalf("edge (%d,%d): sharded replay has (%g, %v), lone graph %g", src, dst, got, ok, w)
		}
		return true
	})
}

// TestReplayIntoAllocs pins the steady-state allocation behaviour the
// reused op buffer exists for: replaying thousands of records must cost a
// bounded, record-count-independent number of allocations.
func TestReplayIntoAllocs(t *testing.T) {
	dir := t.TempDir()
	ops := genOps(40000, 19)
	writeLog(t, dir, ops, 20, Options{}) // 2000 records

	m := &sinkTarget{}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReplayInto(dir, 0, nil, m); err != nil {
			t.Fatal(err)
		}
	})
	// Fixed costs: file opens and the op buffer — but nothing per record.
	// 2000 records at even one alloc each would blow far past this bound.
	if allocs > 400 {
		t.Fatalf("ReplayInto of 2000 records cost %.0f allocs; per-record allocation is back", allocs)
	}
	if m.ops != 4*len(ops) { // warm-up + 3 measured runs
		t.Fatalf("sink saw %d ops across 4 runs, want %d", m.ops, 4*len(ops))
	}
}

// sinkTarget applies by counting — zero allocations, so the allocs test
// measures the replay alone.
type sinkTarget struct{ ops int }

func (s *sinkTarget) NumShards() int { return 4 }
func (s *sinkTarget) ApplyOps(ops []core.EdgeOp) (int, int) {
	s.ops += len(ops)
	return len(ops), 0
}

func BenchmarkReplayInto(b *testing.B) {
	dir := b.TempDir()
	ops := genOps(40000, 23)
	l, err := Open(dir, Options{SyncInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(ops); i += 512 {
		end := i + 512
		if end > len(ops) {
			end = len(ops)
		}
		if _, err := l.Append(ops[i:end]); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newMockTarget(4)
		if _, err := ReplayInto(dir, 0, nil, m); err != nil {
			b.Fatal(err)
		}
	}
}
