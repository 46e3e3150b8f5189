// Package stinger re-implements the STINGER dynamic-graph data structure
// (Ediger, McColl, Riedy, Bader — HPEC 2012), the state-of-the-art baseline
// GraphTinker is evaluated against. The model is the one the paper
// describes: a Logical Vertex Array indexed by vertex id, each entry
// pointing to a chain of fixed-size edge blocks. Edges within a block are
// unsorted, so insertion must traverse the entire chain to rule out a
// duplicate, and deletion must traverse until it finds the edge — the long
// probe distance GraphTinker's hashing removes. The structure has no
// SGH-style densification and no CAL-style compact mirror, so analytics
// scan the whole vertex table, including empty slots, and walk
// non-contiguous block chains.
package stinger

import (
	"fmt"
	"sync/atomic"
	"time"

	"graphtinker/internal/metrics"
)

// Edge mirrors the core package's edge record.
type Edge struct {
	Src    uint64
	Dst    uint64
	Weight float32
}

// Config parameterizes a STINGER instance.
type Config struct {
	// EdgesPerBlock is the capacity of one edge block. The paper configures
	// STINGER with an average edgeblock size of 16 (Sec. V.A).
	EdgesPerBlock int
	// InitialVertexCapacity pre-sizes the logical vertex array. Optional.
	InitialVertexCapacity int
}

// DefaultConfig returns the paper's STINGER configuration.
func DefaultConfig() Config {
	return Config{EdgesPerBlock: 16}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.EdgesPerBlock <= 0 {
		return fmt.Errorf("stinger: EdgesPerBlock %d must be positive", c.EdgesPerBlock)
	}
	if c.InitialVertexCapacity < 0 {
		return fmt.Errorf("stinger: InitialVertexCapacity %d must be non-negative", c.InitialVertexCapacity)
	}
	return nil
}

// Stats counts the work STINGER performs; CellsInspected is the probe
// distance proxy compared against GraphTinker's.
type Stats struct {
	Inserts         uint64
	Updates         uint64
	Deletes         uint64
	Finds           uint64
	CellsInspected  uint64
	BlocksTraversed uint64
	BlocksAllocated uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Inserts += other.Inserts
	s.Updates += other.Updates
	s.Deletes += other.Deletes
	s.Finds += other.Finds
	s.CellsInspected += other.CellsInspected
	s.BlocksTraversed += other.BlocksTraversed
	s.BlocksAllocated += other.BlocksAllocated
}

// statsCounters backs Stats with atomics so that concurrent FindEdge
// callers and mid-batch Stats snapshots stay race-clean — mirroring the
// GraphTinker store so instrumented comparisons are apples-to-apples.
type statsCounters struct {
	inserts, updates, deletes, finds atomic.Uint64
	cellsInspected, blocksTraversed  atomic.Uint64
	blocksAllocated                  atomic.Uint64
}

func (s *statsCounters) snapshot() Stats {
	return Stats{
		Inserts:         s.inserts.Load(),
		Updates:         s.updates.Load(),
		Deletes:         s.deletes.Load(),
		Finds:           s.finds.Load(),
		CellsInspected:  s.cellsInspected.Load(),
		BlocksTraversed: s.blocksTraversed.Load(),
		BlocksAllocated: s.blocksAllocated.Load(),
	}
}

func (s *statsCounters) reset() {
	s.inserts.Store(0)
	s.updates.Store(0)
	s.deletes.Store(0)
	s.finds.Store(0)
	s.cellsInspected.Store(0)
	s.blocksTraversed.Store(0)
	s.blocksAllocated.Store(0)
}

type stEdge struct {
	dst    uint64
	weight float32
	valid  bool
}

type vertexEntry struct {
	head   int32 // first edge block of the chain, -1 when none
	degree uint32
}

const noBlock = int32(-1)

// Stinger is a single shared-memory instance. Like the core GraphTinker
// type it is not safe for concurrent mutation; Parallel shards batches.
type Stinger struct {
	cfg Config

	// Logical Vertex Array, indexed directly by raw vertex id.
	vertices []vertexEntry

	// Edge Block Array: block b occupies edges[b*EdgesPerBlock:...], chained
	// through next.
	edges     []stEdge
	next      []int32
	numBlocks int

	numEdges uint64
	maxRawID uint64
	sawAny   bool

	stats statsCounters

	// rec, when non-nil, receives per-operation latency and probe samples
	// on the update paths (see Instrument).
	rec *metrics.UpdateRecorder
}

// New constructs an empty STINGER instance.
func New(cfg Config) (*Stinger, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &Stinger{cfg: cfg}
	if cfg.InitialVertexCapacity > 0 {
		st.vertices = make([]vertexEntry, 0, cfg.InitialVertexCapacity)
	}
	return st, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *Stinger {
	st, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return st
}

// Config returns the configuration the instance was built with.
func (st *Stinger) Config() Config { return st.cfg }

func (st *Stinger) ensureVertex(id uint64) {
	for uint64(len(st.vertices)) <= id {
		st.vertices = append(st.vertices, vertexEntry{head: noBlock})
	}
}

func (st *Stinger) observe(raw uint64) {
	if !st.sawAny || raw > st.maxRawID {
		st.maxRawID = raw
		st.sawAny = true
	}
}

func (st *Stinger) allocBlock() int32 {
	b := int32(st.numBlocks)
	st.numBlocks++
	st.edges = growEdges(st.edges, st.cfg.EdgesPerBlock)
	st.next = append(st.next, noBlock)
	st.stats.blocksAllocated.Add(1)
	return b
}

// growEdges extends the edge arena by n zeroed slots without allocating a
// temporary slice, doubling capacity for amortized O(1) growth.
func growEdges(s []stEdge, n int) []stEdge {
	if cap(s) >= len(s)+n {
		return s[: len(s)+n : cap(s)]
	}
	newCap := 2 * cap(s)
	if newCap < len(s)+n {
		newCap = len(s) + n
	}
	ns := make([]stEdge, len(s)+n, newCap)
	copy(ns, s)
	return ns
}

func (st *Stinger) blockEdges(b int32) []stEdge {
	n := st.cfg.EdgesPerBlock
	return st.edges[int(b)*n : int(b)*n+n]
}

// NumEdges returns the number of live edges.
func (st *Stinger) NumEdges() uint64 { return st.numEdges }

// MaxVertexID returns the highest raw vertex id observed on either endpoint.
func (st *Stinger) MaxVertexID() (uint64, bool) { return st.maxRawID, st.sawAny }

// OutDegree returns the current out-degree of src.
func (st *Stinger) OutDegree(src uint64) uint32 {
	if src >= uint64(len(st.vertices)) {
		return 0
	}
	return st.vertices[src].degree
}

// Stats returns a copy of the accumulated counters. The counters are
// atomics, so snapshots are race-clean even beside concurrent FindEdge
// callers or a batch running on a sibling shard.
func (st *Stinger) Stats() Stats { return st.stats.snapshot() }

// ResetStats clears the counters.
func (st *Stinger) ResetStats() { st.stats.reset() }

// Instrument attaches an update-path recorder mirroring GraphTinker's: each
// InsertEdge/DeleteEdge/FindEdge records its latency and probe distance
// (cells inspected). A nil rec detaches. Do not attach or detach while
// operations are in flight.
func (st *Stinger) Instrument(rec *metrics.UpdateRecorder) { st.rec = rec }

// Recorder returns the attached recorder (nil when detached).
func (st *Stinger) Recorder() *metrics.UpdateRecorder { return st.rec }

// MemoryBytes estimates the resident footprint.
func (st *Stinger) MemoryBytes() uint64 {
	const edgeBytes = 8 + 4 + 1
	return uint64(len(st.edges))*edgeBytes + uint64(len(st.next))*4 + uint64(len(st.vertices))*12
}

// InsertEdge inserts (src, dst, w); it returns true when the edge is new.
// The whole block chain of src is probed first to rule out a duplicate —
// the traversal cost the paper identifies as STINGER's weakness.
func (st *Stinger) InsertEdge(src, dst uint64, w float32) bool {
	if st.rec == nil {
		isNew, _ := st.insertEdge(src, dst, w)
		return isNew
	}
	start := time.Now()
	isNew, cells := st.insertEdge(src, dst, w)
	st.rec.RecordInsert(time.Since(start), cells)
	return isNew
}

func (st *Stinger) insertEdge(src, dst uint64, w float32) (bool, int) {
	st.observe(src)
	st.observe(dst)
	st.ensureVertex(src)
	v := &st.vertices[src]

	freeBlock, freeSlot := noBlock, -1
	lastBlock := noBlock
	var blocks, cells uint64
	for b := v.head; b != noBlock; b = st.next[b] {
		blocks++
		ed := st.blockEdges(b)
		for i := range ed {
			cells++
			if ed[i].valid {
				if ed[i].dst == dst {
					ed[i].weight = w
					st.stats.blocksTraversed.Add(blocks)
					st.stats.cellsInspected.Add(cells)
					st.stats.updates.Add(1)
					return false, int(cells)
				}
			} else if freeSlot < 0 {
				freeBlock, freeSlot = b, i
			}
		}
		lastBlock = b
	}
	st.stats.blocksTraversed.Add(blocks)
	st.stats.cellsInspected.Add(cells)

	if freeSlot < 0 {
		nb := st.allocBlock()
		if lastBlock == noBlock {
			v.head = nb
		} else {
			st.next[lastBlock] = nb
		}
		freeBlock, freeSlot = nb, 0
	}
	st.blockEdges(freeBlock)[freeSlot] = stEdge{dst: dst, weight: w, valid: true}
	v.degree++
	st.numEdges++
	st.stats.inserts.Add(1)
	return true, int(cells)
}

// InsertBatch inserts a batch, returning how many edges were new.
func (st *Stinger) InsertBatch(edges []Edge) int {
	inserted := 0
	for _, e := range edges {
		if st.InsertEdge(e.Src, e.Dst, e.Weight) {
			inserted++
		}
	}
	return inserted
}

// FindEdge reports the weight of (src, dst) if stored. Safe for concurrent
// callers: the traversal mutates nothing but atomic counters.
func (st *Stinger) FindEdge(src, dst uint64) (float32, bool) {
	if st.rec == nil {
		w, _, ok := st.findEdge(src, dst)
		return w, ok
	}
	start := time.Now()
	w, cells, ok := st.findEdge(src, dst)
	st.rec.RecordFind(time.Since(start), cells)
	return w, ok
}

func (st *Stinger) findEdge(src, dst uint64) (float32, int, bool) {
	st.stats.finds.Add(1)
	if src >= uint64(len(st.vertices)) {
		return 0, 0, false
	}
	var blocks, cells uint64
	for b := st.vertices[src].head; b != noBlock; b = st.next[b] {
		blocks++
		ed := st.blockEdges(b)
		for i := range ed {
			cells++
			if ed[i].valid && ed[i].dst == dst {
				st.stats.blocksTraversed.Add(blocks)
				st.stats.cellsInspected.Add(cells)
				return ed[i].weight, int(cells), true
			}
		}
	}
	st.stats.blocksTraversed.Add(blocks)
	st.stats.cellsInspected.Add(cells)
	return 0, int(cells), false
}

// DeleteEdge removes (src, dst), returning false when absent. The slot is
// flagged invalid; STINGER does not compact chains.
func (st *Stinger) DeleteEdge(src, dst uint64) bool {
	if st.rec == nil {
		removed, _ := st.deleteEdge(src, dst)
		return removed
	}
	start := time.Now()
	removed, cells := st.deleteEdge(src, dst)
	st.rec.RecordDelete(time.Since(start), cells)
	return removed
}

func (st *Stinger) deleteEdge(src, dst uint64) (bool, int) {
	if src >= uint64(len(st.vertices)) {
		return false, 0
	}
	v := &st.vertices[src]
	var blocks, cells uint64
	for b := v.head; b != noBlock; b = st.next[b] {
		blocks++
		ed := st.blockEdges(b)
		for i := range ed {
			cells++
			if ed[i].valid && ed[i].dst == dst {
				ed[i].valid = false
				v.degree--
				st.numEdges--
				st.stats.blocksTraversed.Add(blocks)
				st.stats.cellsInspected.Add(cells)
				st.stats.deletes.Add(1)
				return true, int(cells)
			}
		}
	}
	st.stats.blocksTraversed.Add(blocks)
	st.stats.cellsInspected.Add(cells)
	return false, int(cells)
}

// DeleteBatch removes a batch, returning how many edges were present.
func (st *Stinger) DeleteBatch(edges []Edge) int {
	removed := 0
	for _, e := range edges {
		if st.DeleteEdge(e.Src, e.Dst) {
			removed++
		}
	}
	return removed
}

// ForEachOutEdge visits the live out-edges of src. The callback returns
// false to stop.
func (st *Stinger) ForEachOutEdge(src uint64, fn func(dst uint64, w float32) bool) {
	if src >= uint64(len(st.vertices)) {
		return
	}
	for b := st.vertices[src].head; b != noBlock; b = st.next[b] {
		ed := st.blockEdges(b)
		for i := range ed {
			if ed[i].valid {
				if !fn(ed[i].dst, ed[i].weight) {
					return
				}
			}
		}
	}
}

// ForEachEdge visits every live edge by scanning the full logical vertex
// array — empty slots included, since STINGER has no non-empty-vertex
// index. The callback returns false to stop.
func (st *Stinger) ForEachEdge(fn func(src, dst uint64, w float32) bool) {
	for src := range st.vertices {
		for b := st.vertices[src].head; b != noBlock; b = st.next[b] {
			ed := st.blockEdges(b)
			for i := range ed {
				if ed[i].valid {
					if !fn(uint64(src), ed[i].dst, ed[i].weight) {
						return
					}
				}
			}
		}
	}
}

// ForEachActiveEdge is the engine's streaming path. STINGER keeps no
// index that could skip a source, so it streams every edge (ForEachEdge)
// and leaves the filtering to the caller.
func (st *Stinger) ForEachActiveEdge(_ func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	st.ForEachEdge(fn)
}

// Edges returns a snapshot of all live edges.
func (st *Stinger) Edges() []Edge {
	out := make([]Edge, 0, st.numEdges)
	st.ForEachEdge(func(src, dst uint64, w float32) bool {
		out = append(out, Edge{Src: src, Dst: dst, Weight: w})
		return true
	})
	return out
}

// OutEdges returns a snapshot of the out-edges of src.
func (st *Stinger) OutEdges(src uint64) []Edge {
	var out []Edge
	st.ForEachOutEdge(src, func(dst uint64, w float32) bool {
		out = append(out, Edge{Src: src, Dst: dst, Weight: w})
		return true
	})
	return out
}
