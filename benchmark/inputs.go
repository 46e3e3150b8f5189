package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/rmat"
)

// Batch sizes are the same at every size: they set the granularity at
// which an update is acknowledged, so they are part of the workload's
// definition and not of its length.
const (
	updateBatch = 4096 // ops per timed update call, closed-loop workloads
	pacedBatch  = 1024 // ops per scheduled batch on stream-paced
	flushEvery  = 16   // stream-durable: Flush after every 16th batch
	deleteEvery = 10   // mixed stream: every 10th op is a delete
	bundleFinds = 64   // FindEdge calls per read bundle, half hits
)

// sizes fixes how much work one round of each workload does. The paper's
// own stream lengths (5M and 2M tuples) are shrunk so that one run fits
// the benchmark contract's time cap; README.md records the factors.
type sizes struct {
	name string

	clockBytes int // the memory clock's array

	insertDivisor int // RMAT_1M_10M scale divisor for insert-core

	streamDivisor int     // RMAT_1M_10M divisor for both stream workloads
	streamBatches int     // updateBatch-op batches per stream-durable round
	pacedPreload  int     // ops stream-paced pushes closed-loop during set-up, so the schedule runs on a store of stream-durable's size
	pacedBatches  int     // scheduled batches per stream-paced round
	pacedRate     float64 // ops/s offered on stream-paced; a constant, never derived at run time
	deleteLag     int     // a delete removes an edge inserted this many ops earlier
	ladderOps     int     // prefix of the stream-durable stream the ladder replays

	churnDivisor  int     // RMAT_1M_10M divisor for read-churn's edge supply
	churnPreload  int     // edges loaded before phase A
	churnPairsA   int     // insert+delete batch pairs, writer alone
	churnPairsB   int     // pairs while the reader runs
	churnBatchHz  float64 // phase B writer pace, batches/s; a constant
	readBundles   int     // bundles in the quiescent read stage of the other workloads
	queryBundles  int     // distinct precomputed bundles (cycled)
	ackLimitMs    float64 // stream-paced: a later ack counts as failed
	analyticsDiv  int     // RMAT_500K_8M divisor for analytics-hybrid
	loadBatches   int     // reporting batches on insert-core and analytics-hybrid
	deleteBatches int     // delete reporting batches on insert-core
}

var fullSize = sizes{
	name:          "full",
	clockBytes:    512 << 20,
	insertDivisor: 8, // 1.25M tuples, scale 17
	streamDivisor: 8,
	streamBatches: 256, // 1,048,576 ops
	pacedPreload:  128 * updateBatch,
	pacedBatches:  256,
	pacedRate:     100_000,
	deleteLag:     65536,
	ladderOps:     64 * updateBatch,
	churnDivisor:  8,
	churnPreload:  600_000,
	churnPairsA:   64,
	churnPairsB:   32,
	churnBatchHz:  64,
	readBundles:   8192,
	queryBundles:  2048,
	ackLimitMs:    250,
	analyticsDiv:  16, // 523k tuples, scale 15
	loadBatches:   10,
	deleteBatches: 5,
}

// smokeSize keeps every code path and shrinks every length, for the
// package's own tests.
var smokeSize = sizes{
	name:          "smoke",
	clockBytes:    1 << 20,
	insertDivisor: 512,
	streamDivisor: 512,
	streamBatches: 4,
	pacedPreload:  updateBatch,
	pacedBatches:  12,
	pacedRate:     100_000,
	deleteLag:     2048,
	ladderOps:     2 * updateBatch,
	churnDivisor:  256,
	churnPreload:  20_000,
	churnPairsA:   2,
	churnPairsB:   2,
	churnBatchHz:  90,
	readBundles:   200,
	queryBundles:  64,
	ackLimitMs:    250,
	analyticsDiv:  512,
	loadBatches:   10,
	deleteBatches: 5,
}

func sizeByName(name string) (sizes, error) {
	switch name {
	case "full":
		return fullSize, nil
	case "smoke":
		return smokeSize, nil
	}
	return sizes{}, fmt.Errorf("unknown -size %q (full, smoke)", name)
}

// genTuples materializes a Table-1 dataset at the given divisor with the
// run's seed in place of the registry's fixed one. salt separates the
// workloads' streams.
func genTuples(dataset string, divisor int, seed, salt uint64) ([]core.Edge, rmat.Params, error) {
	d, err := datasets.ByName(dataset)
	if err != nil {
		return nil, rmat.Params{}, err
	}
	p, err := d.ScaledParams(divisor)
	if err != nil {
		return nil, rmat.Params{}, err
	}
	p.Seed = seed*0x9e3779b97f4a7c15 + salt
	es, err := rmat.Generate(p)
	if err != nil {
		return nil, rmat.Params{}, err
	}
	out := make([]core.Edge, len(es))
	for i, e := range es {
		out[i] = core.Edge(e)
	}
	return out, p, nil
}

// mixedStream turns tuples into the stream workloads' op sequence: every
// deleteEvery-th op deletes the edge an insert lag ops earlier carried.
func mixedStream(tuples []core.Edge, lag int) []core.EdgeOp {
	ops := make([]core.EdgeOp, len(tuples))
	for i, e := range tuples {
		if i%deleteEvery == deleteEvery-1 && i >= lag {
			j := i - lag
			if j%deleteEvery == deleteEvery-1 && j >= lag {
				j-- // that slot was itself a delete; take the insert before it
			}
			ops[i] = core.DeleteOp(tuples[j].Src, tuples[j].Dst)
			continue
		}
		ops[i] = core.InsertOp(e.Src, e.Dst, e.Weight)
	}
	return ops
}

func insertOps(edges []core.Edge) []core.EdgeOp {
	ops := make([]core.EdgeOp, len(edges))
	for i, e := range edges {
		ops[i] = core.EdgeOp{Edge: e}
	}
	return ops
}

func deleteOps(edges []core.Edge) []core.EdgeOp {
	ops := make([]core.EdgeOp, len(edges))
	for i, e := range edges {
		ops[i] = core.DeleteOp(e.Src, e.Dst)
	}
	return ops
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumOps is the CRC32-C of the op stream the program under test is
// fed; the report header carries it so two runs can prove they measured
// the same input.
func checksumOps(ops []core.EdgeOp) uint32 {
	var buf [21]byte
	sum := uint32(0)
	for _, op := range ops {
		binary.LittleEndian.PutUint64(buf[0:], op.Src)
		binary.LittleEndian.PutUint64(buf[8:], op.Dst)
		binary.LittleEndian.PutUint32(buf[16:], math.Float32bits(op.Weight))
		buf[20] = 0
		if op.Del {
			buf[20] = 1
		}
		sum = crc32.Update(sum, castagnoli, buf[:])
	}
	return sum
}

// chunks cuts [0,n) into consecutive pieces of at most size.
func chunks(n, size int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}
