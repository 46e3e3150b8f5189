package core

// Mirrored maintains two GraphTinker instances — one keyed by source
// (out-edges) and one keyed by destination (in-edges) — so both edge
// directions can be followed efficiently. The paper's future-work section
// proposes exploring the vertex-centric computation model, whose gather
// phase pulls over *in*-edges; Mirrored is the substrate that makes that
// model runnable on GraphTinker.
type Mirrored struct {
	fwd  *GraphTinker
	rev  *GraphTinker
	flip []Edge // a batch's reversed edges, at most applyChunk at a time
}

// NewMirrored builds the pair with a shared configuration.
func NewMirrored(cfg Config) (*Mirrored, error) {
	fwd, err := New(cfg)
	if err != nil {
		return nil, err
	}
	rev, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Mirrored{fwd: fwd, rev: rev}, nil
}

// MustNewMirrored is NewMirrored for known-valid configurations.
func MustNewMirrored(cfg Config) *Mirrored {
	m, err := NewMirrored(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Forward exposes the out-edge instance (read-only use).
func (m *Mirrored) Forward() *GraphTinker { return m.fwd }

// Reverse exposes the in-edge instance (read-only use).
func (m *Mirrored) Reverse() *GraphTinker { return m.rev }

// InsertEdge inserts (src, dst, w) into both directions.
func (m *Mirrored) InsertEdge(src, dst uint64, w float32) bool {
	isNew := m.fwd.InsertEdge(src, dst, w)
	m.rev.InsertEdge(dst, src, w)
	return isNew
}

// InsertBatch inserts a batch, returning how many edges were new.
func (m *Mirrored) InsertBatch(edges []Edge) int {
	m.reversed(edges, m.rev.InsertBatch)
	return m.fwd.InsertBatch(edges)
}

// reversed hands the in-edge instance's batch op, a bounded chunk at a
// time, the edges with their endpoints swapped.
func (m *Mirrored) reversed(edges []Edge, batch func([]Edge) int) {
	for lo := 0; lo < len(edges); lo += applyChunk {
		m.flip = m.flip[:0]
		for _, e := range edges[lo:min(lo+applyChunk, len(edges))] {
			m.flip = append(m.flip, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
		}
		batch(m.flip)
	}
}

// DeleteEdge removes (src, dst) from both directions.
func (m *Mirrored) DeleteEdge(src, dst uint64) bool {
	ok := m.fwd.DeleteEdge(src, dst)
	m.rev.DeleteEdge(dst, src)
	return ok
}

// DeleteBatch removes a batch, returning how many edges were present.
func (m *Mirrored) DeleteBatch(edges []Edge) int {
	m.reversed(edges, m.rev.DeleteBatch)
	return m.fwd.DeleteBatch(edges)
}

// NumEdges returns the live edge count.
func (m *Mirrored) NumEdges() uint64 { return m.fwd.NumEdges() }

// MaxVertexID returns the highest raw id observed.
func (m *Mirrored) MaxVertexID() (uint64, bool) { return m.fwd.MaxVertexID() }

// OutDegree / InDegree report the two directed degrees.
func (m *Mirrored) OutDegree(v uint64) uint32 { return m.fwd.OutDegree(v) }
func (m *Mirrored) InDegree(v uint64) uint32  { return m.rev.OutDegree(v) }

// FindEdge reports the weight of (src, dst) if stored.
func (m *Mirrored) FindEdge(src, dst uint64) (float32, bool) {
	return m.fwd.FindEdge(src, dst)
}

// ForEachOutEdge / ForEachInEdge walk one vertex's edges in either
// direction.
func (m *Mirrored) ForEachOutEdge(v uint64, fn func(dst uint64, w float32) bool) {
	m.fwd.ForEachOutEdge(v, fn)
}

func (m *Mirrored) ForEachInEdge(v uint64, fn func(src uint64, w float32) bool) {
	m.rev.ForEachOutEdge(v, fn)
}

// ForEachEdge streams all edges of the forward instance.
func (m *Mirrored) ForEachEdge(fn func(src, dst uint64, w float32) bool) {
	m.fwd.ForEachEdge(fn)
}

// ForEachActiveEdge streams the forward instance's out-edges of the
// sources active accepts (see GraphTinker.ForEachActiveEdge).
func (m *Mirrored) ForEachActiveEdge(active func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	m.fwd.ForEachActiveEdge(active, fn)
}

// SplitsEdgeWalk reports whether the forward instance splits its walk.
func (m *Mirrored) SplitsEdgeWalk() bool { return m.fwd.SplitsEdgeWalk() }

// ForEachActivePartEdge walks one part of the forward instance (see
// GraphTinker.ForEachActivePartEdge).
func (m *Mirrored) ForEachActivePartEdge(part, parts int, active func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	m.fwd.ForEachActivePartEdge(part, parts, active, fn)
}

// ForEachInSource visits every vertex with at least one in-edge.
func (m *Mirrored) ForEachInSource(fn func(v uint64, inDegree uint32) bool) {
	m.rev.ForEachSource(fn)
}
