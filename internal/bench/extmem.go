package bench

import (
	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/stinger"
)

// memRow is one stand-in's footprint per live edge under each structure.
type memRow struct {
	name                          string
	edges                         uint64
	gt, gtDefault, noCAL, pw16    float64 // bytes per live edge
	stinger                       float64
	gtFill, defaultFill, pw16Fill float64
}

// memoryRows loads every Table-1 stand-in into the paper's block tree (GT,
// and its no-CAL and PAGEWIDTH-16 variants), into the adaptive default and
// into STINGER, and measures each.
func memoryRows(opts Options) ([]memRow, error) {
	var rows []memRow
	for _, d := range datasets.Table1() {
		batches, err := opts.materialize(d)
		if err != nil {
			return nil, err
		}
		load := func(cfg core.Config) *core.GraphTinker {
			g := core.MustNew(cfg)
			for _, b := range batches {
				g.InsertBatch(b)
			}
			return g
		}
		g := load(gtConfig())
		gDefault := load(core.DefaultConfig())
		gNoCAL := load(gtConfig(func(c *core.Config) { c.EnableCAL = false }))
		gPW16 := load(gtConfig(func(c *core.Config) { c.PageWidth = 16 }))
		st := stinger.MustNew(stinger.DefaultConfig())
		for _, b := range batches {
			st.InsertBatch(toStinger(b))
		}

		perEdge := func(bytes uint64) float64 {
			if g.NumEdges() == 0 {
				return 0
			}
			return float64(bytes) / float64(g.NumEdges())
		}
		rows = append(rows, memRow{
			name:        d.Name,
			edges:       g.NumEdges(),
			gt:          perEdge(g.Memory().Total()),
			gtDefault:   perEdge(gDefault.Memory().Total()),
			noCAL:       perEdge(gNoCAL.Memory().Total()),
			pw16:        perEdge(gPW16.Memory().Total()),
			stinger:     perEdge(st.MemoryBytes()),
			gtFill:      g.OccupancyReport().Fill(),
			defaultFill: gDefault.OccupancyReport().Fill(),
			pw16Fill:    gPW16.OccupancyReport().Fill(),
		})
	}
	return rows, nil
}

// ExtMemory compares the resident footprint per live edge across the
// structures and configurations — the space side of the compaction story
// the paper tells in time (Sec. III.B's "highly compacted representation"
// refers to access contiguity; this table shows what the CAL mirror and
// the PAGEWIDTH-wide edgeblocks cost in bytes, and what the adaptive
// slice/cuckoo default saves).
func ExtMemory(opts Options) (Table, error) {
	t := Table{
		ID:    "ext-mem",
		Title: "Memory per live edge after full load (bytes/edge)",
		Columns: []string{
			"dataset", "edges", "GT", "GT default", "GT-noCAL", "GT pw16", "STINGER", "GT fill", "default fill", "pw16 fill",
		},
	}
	rows, err := memoryRows(opts)
	if err != nil {
		return t, err
	}
	for _, r := range rows {
		t.AddRow(r.name, itoa(int(r.edges)),
			f1(r.gt), f1(r.gtDefault), f1(r.noCAL), f1(r.pw16), f1(r.stinger),
			f2(r.gtFill), f2(r.defaultFill), f2(r.pw16Fill))
	}
	t.AddNote("GT is the paper's block tree: wide, partly-empty edgeblocks + CAL copy trade space for probe distance and stream contiguity")
	t.AddNote("GT default is the adaptive slice/cuckoo representation with the same CAL")
	t.AddNote("fill is live edges over allocated edge slots: block cells, slice capacity and cuckoo slots, buffers kept for reuse included")
	return t, nil
}
