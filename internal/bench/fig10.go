package bench

import (
	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/stinger"
)

// Fig10 reproduces the multicore update-throughput experiment: the
// Hollywood-2009 stand-in loaded through the partitioned-instance parallel
// model (Sec. III.D) at each core count, for GraphTinker and STINGER. The
// paper's shape: GraphTinker ahead at every core count; STINGER starts
// reasonably but degrades rapidly across batches (e.g. 3.4 → 1 Medges/s at
// 8 cores).
func Fig10(opts Options) (Table, error) {
	d, err := datasets.ByName("Hollywood-2009")
	if err != nil {
		return Table{}, err
	}
	batches, err := opts.materialize(d)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig10",
		Title:   "Update throughput vs CPU cores, Hollywood-2009 stand-in (Medges/s)",
		Columns: []string{"cores", "GT total", "GT first", "GT last", "ST total", "ST first", "ST last", "GT/ST"},
	}
	for _, cores := range opts.Cores {
		gtPar, err := core.NewParallel(gtConfig(), cores)
		if err != nil {
			return t, err
		}
		stPar, err := stinger.NewParallel(stinger.DefaultConfig(), cores)
		if err != nil {
			return t, err
		}
		gt := insertTimed(opts, gtParStore{gtPar}, batches)
		st := insertTimed(opts, stParStore{stPar}, batches)
		gtM, stM := totalMEPS(gt), totalMEPS(st)
		ratio := 0.0
		if stM > 0 {
			ratio = gtM / stM
		}
		last := len(batches) - 1
		t.AddRow(itoa(cores),
			f2(gtM), f2(gt[0].MEPS()), f2(gt[last].MEPS()),
			f2(stM), f2(st[0].MEPS()), f2(st[last].MEPS()),
			f2(ratio))
	}
	t.AddNote("paper shape: GT wins at every core count; STINGER degrades sharply first→last batch")
	return t, nil
}
