package stinger

import (
	"fmt"
	"sync"

	"graphtinker/internal/metrics"
)

// Parallel shards a STINGER graph across independent instances by source
// vertex hash, giving the baseline the same batch-parallel update model the
// harness uses for GraphTinker (Fig. 10 compares both at equal core
// counts).
type Parallel struct {
	shards []*Stinger
	seed   uint64
}

// NewParallel builds p independent instances.
func NewParallel(cfg Config, p int) (*Parallel, error) {
	if p <= 0 {
		return nil, fmt.Errorf("stinger: shard count %d must be positive", p)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	par := &Parallel{shards: make([]*Stinger, p), seed: 0x9b1f3a5c7d9e0b24}
	for i := range par.shards {
		par.shards[i] = MustNew(cfg)
	}
	return par, nil
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (p *Parallel) shardOf(src uint64) int {
	return int(mix64(src^p.seed) % uint64(len(p.shards)))
}

// Shards returns the number of instances.
func (p *Parallel) Shards() int { return len(p.shards) }

// Shard exposes instance i.
func (p *Parallel) Shard(i int) *Stinger { return p.shards[i] }

func (p *Parallel) partition(edges []Edge) [][]Edge {
	parts := make([][]Edge, len(p.shards))
	for i := range edges {
		s := p.shardOf(edges[i].Src)
		parts[s] = append(parts[s], edges[i])
	}
	return parts
}

// InsertBatch loads a batch concurrently, one goroutine per shard.
func (p *Parallel) InsertBatch(edges []Edge) int {
	parts := p.partition(edges)
	results := make([]int, len(p.shards))
	var wg sync.WaitGroup
	for i := range p.shards {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.shards[i].InsertBatch(parts[i])
		}(i)
	}
	wg.Wait()
	total := 0
	for _, r := range results {
		total += r
	}
	return total
}

// DeleteBatch removes a batch concurrently.
func (p *Parallel) DeleteBatch(edges []Edge) int {
	parts := p.partition(edges)
	results := make([]int, len(p.shards))
	var wg sync.WaitGroup
	for i := range p.shards {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.shards[i].DeleteBatch(parts[i])
		}(i)
	}
	wg.Wait()
	total := 0
	for _, r := range results {
		total += r
	}
	return total
}

// NumEdges sums live edges across shards.
func (p *Parallel) NumEdges() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.NumEdges()
	}
	return n
}

// FindEdge routes a lookup to its shard.
func (p *Parallel) FindEdge(src, dst uint64) (float32, bool) {
	return p.shards[p.shardOf(src)].FindEdge(src, dst)
}

// NumShards reports the shard count.
func (p *Parallel) NumShards() int { return len(p.shards) }

// SplitsEdgeWalk reports whether ForEachActivePartEdge divides the walk:
// it does by shard when there are two or more.
func (p *Parallel) SplitsEdgeWalk() bool { return len(p.shards) > 1 }

// ForEachActivePartEdge streams every live edge of part `part` of `parts`:
// the whole shards part, part+parts, … (read-only). Parts may be walked
// concurrently; like Stinger.ForEachActiveEdge it leaves the filtering to
// the caller. A false from fn stops the walk across shards.
func (p *Parallel) ForEachActivePartEdge(part, parts int, _ func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	stopped := false
	visit := func(src, dst uint64, w float32) bool {
		stopped = !fn(src, dst, w)
		return !stopped
	}
	for i := part; i < len(p.shards) && !stopped; i += parts {
		p.shards[i].ForEachEdge(visit)
	}
}

// MaxVertexID returns the highest raw vertex id seen by any shard.
func (p *Parallel) MaxVertexID() (uint64, bool) {
	var maxID uint64
	saw := false
	for _, s := range p.shards {
		if id, ok := s.MaxVertexID(); ok {
			if !saw || id > maxID {
				maxID = id
			}
			saw = true
		}
	}
	return maxID, saw
}

// OutDegree routes a degree query to its shard.
func (p *Parallel) OutDegree(src uint64) uint32 {
	return p.shards[p.shardOf(src)].OutDegree(src)
}

// ForEachOutEdge routes the per-vertex walk to the owning shard.
func (p *Parallel) ForEachOutEdge(src uint64, fn func(dst uint64, w float32) bool) {
	p.shards[p.shardOf(src)].ForEachOutEdge(src, fn)
}

// ForEachEdge streams all edges shard by shard: ForEachActivePartEdge's
// only part of one.
func (p *Parallel) ForEachEdge(fn func(src, dst uint64, w float32) bool) {
	p.ForEachActivePartEdge(0, 1, nil, fn)
}

// ForEachActiveEdge streams every edge (ForEachEdge), leaving the filtering
// to the caller.
func (p *Parallel) ForEachActiveEdge(_ func(src uint64) bool, fn func(src, dst uint64, w float32) bool) {
	p.ForEachEdge(fn)
}

// Stats merges the counters of every shard. Safe to call mid-batch: the
// per-shard counters are atomics.
func (p *Parallel) Stats() Stats {
	var total Stats
	for _, s := range p.shards {
		total.Add(s.Stats())
	}
	return total
}

// ShardStats snapshots each shard's counters individually; safe mid-batch.
func (p *Parallel) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.Stats()
	}
	return out
}

// Instrument attaches one shared update-path recorder to every shard (see
// Stinger.Instrument). A nil rec detaches.
func (p *Parallel) Instrument(rec *metrics.UpdateRecorder) {
	for _, s := range p.shards {
		s.Instrument(rec)
	}
}
