package core

// Bulk construction of an unpublished instance: snapshot recovery (every
// v2 section, for a Parallel shard or a lone graph alike), and the
// seqlock's SINGLE -> DUAL promotion.
//
// The seqlock write protocol (seqlock.go) exists to protect concurrent
// readers. A replica nobody can reach yet needs none of it: during recovery
// the store has not been returned to its creator, and a promotion's clone
// is not installed in its shard until it is complete. That is the
// replica-construction invariant: bulkInsertRun is only legal on a
// never-published instance, and once the instance is reachable every later
// mutation goes through the seqlock protocol. Recovery builds each shard's
// one replica and leaves the shard in SINGLE mode.
//
// Edges still go through the containers' real Insert path (not the
// migration-only bulkAdd paths), so the degree/count bookkeeping and, for
// the block tree, the CAL mirror and the cells' pointers into it come out
// exactly as sequential insertion would leave them. What the bulk path
// skips is the migration churn: each source's run carries its final
// degree, so initForDegree picks the container format (and the cuckoo
// geometry) the degree lands in up front instead of promoting slice →
// cuckoo on the way up.

import (
	"fmt"
	"io"

	"graphtinker/internal/faultinject"
)

// loadSection is the one section loader: it CRC-checks the v2 section
// numbered shard and bulk-builds its runs into g, which no reader can
// reach yet. A
// Parallel loads each section into its own shard's replica and passes the
// partition as owner, so a source routed elsewhere fails the load; a lone
// graph loads every section into itself and passes nil.
func loadSection(ra io.ReaderAt, shard int, sec v2Section, g *GraphTinker, owner func(src uint64) int) error {
	// The failpoint models a crash or fault mid-load: recovery dies here
	// with other section loads in flight, and the directory must remain
	// recoverable by a later open.
	if err := faultinject.Inject("recovery/bulk-load"); err != nil {
		return fmt.Errorf("core: snapshot shard %d bulk load: %w", shard, err)
	}
	buf, err := readV2Section(ra, shard, sec)
	if err != nil {
		return err
	}
	before := g.NumEdges()
	g.reserveVertices(len(g.cont) + int(sec.sources))
	if err := decodeV2Runs(buf, shard, sec, func(src uint64, run []Edge) error {
		if owner != nil && owner(src) != shard {
			return fmt.Errorf("core: snapshot shard %d section contains source %d owned by shard %d (section at byte offset %d)", shard, src, owner(src), sec.off)
		}
		g.bulkInsertRun(src, run)
		return nil
	}); err != nil {
		return err
	}
	// The bulk path skips the seqlock protocol and every per-op check, so
	// verify its outcome: the section must add exactly the edges the table
	// promised (duplicate destinations would silently collapse).
	if got := g.NumEdges() - before; got != sec.edges {
		return fmt.Errorf("core: snapshot shard %d bulk load produced %d edges, section table says %d (duplicate records?)", shard, got, sec.edges)
	}
	return nil
}

// bulkInsertRun inserts one source's complete edge run, choosing the
// final container format up front from the run's degree. Only valid on a
// replica that has never been published (see the file comment), which is
// also why the run's counts are folded in once at its end: no one can
// snapshot the stats mid-run.
func (gt *GraphTinker) bulkInsertRun(src uint64, run []Edge) {
	gt.observe(src)
	d := gt.denseOf(src)
	gt.ensureDense(d)
	ac := &gt.cont[d]
	if ac.kind == reprNone {
		ac.initForDegree(gt, d, len(run))
	}
	var t opTally
	for i := range run {
		gt.observe(run[i].Dst)
		if isNew, _ := ac.insert(&t, run[i].Dst, run[i].Weight); isNew {
			t.inserted++
		}
	}
	t.updated = uint64(len(run)) - t.inserted
	gt.fold(&t)
}

// cloneInto bulk-builds dst, an empty unpublished instance of the same
// configuration, as a logical copy of gt: the same live edges, weights and
// raw id space, one per-source run at a time. It only reads gt, so readers
// may keep using gt meanwhile. The copy is not structural: a source whose
// edges were all deleted gets no dense id in dst, a vertex inside a
// migration hysteresis band may land in the other format, and tombstones
// and overflow depth do not carry over — so iteration order may differ
// between the two.
func (gt *GraphTinker) cloneInto(dst *GraphTinker) {
	dst.reserveVertices(gt.NonEmptySources())
	var src uint64
	var run []Edge
	collect := func(dst uint64, w float32) bool {
		run = append(run, Edge{Src: src, Dst: dst, Weight: w})
		return true
	}
	for d := range gt.cont {
		if gt.cont[d].kind == reprNone || gt.props.degree[d] == 0 {
			continue
		}
		src, run = gt.rawOf(uint32(d)), run[:0]
		gt.cont[d].Iterate(collect)
		dst.bulkInsertRun(src, run)
	}
	if gt.sawAny {
		dst.observe(gt.maxRawID)
	}
}

// reserveVertices grows the dense-id arrays and the SGH index to capacity
// n in one step so a bulk load of n sources (the section header's count)
// does not re-grow or rehash them log(n) times. A hint only — ensureDense
// and assign still extend on demand.
func (gt *GraphTinker) reserveVertices(n int) {
	gt.props.reserve(n)
	if gt.sgh != nil {
		gt.sgh.reserve(n)
	}
	if n <= cap(gt.cont) {
		return
	}
	gt.cont = append(make([]adaptiveContainer, 0, n), gt.cont...)
	if gt.cfg.Repr == ReprBlocks {
		gt.topBlock = append(make([]int32, 0, n), gt.topBlock...)
	}
}
