package bench

import (
	"graphtinker/internal/core"
	"graphtinker/internal/datasets"
	"graphtinker/internal/engine"
	"graphtinker/internal/stinger"
)

// Ablation reproduces the Sec. V.B feature study: with SGH and CAL
// disabled, GraphTinker's full-processing analytics advantage over STINGER
// collapses to about 1.5x, and the two features together account for over
// 91% of its analytics performance. The workload is the Figs. 11-13 loop
// (BFS, full-processing engine) on the Hollywood-2009 stand-in.
func Ablation(opts Options) (Table, error) {
	d, err := datasets.ByName("Hollywood-2009")
	if err != nil {
		return Table{}, err
	}
	batches, err := opts.materialize(d)
	if err != nil {
		return Table{}, err
	}
	root := pickRoot(batches)
	prog, err := program("bfs", root)
	if err != nil {
		return Table{}, err
	}

	runGT := func(mutate ...func(*core.Config)) workloadResult {
		g := core.MustNew(gtConfig(mutate...))
		return analyticsWorkload(opts, "ablation/gt", g, gtStore{g}, batches, prog, engine.FullProcessing)
	}
	full := runGT()
	noSGH := runGT(func(c *core.Config) { c.EnableSGH = false })
	noCAL := runGT(func(c *core.Config) { c.EnableCAL = false })
	neither := runGT(
		func(c *core.Config) { c.EnableSGH = false },
		func(c *core.Config) { c.EnableCAL = false },
	)
	def := core.MustNew(core.DefaultConfig())
	defRes := analyticsWorkload(opts, "ablation/gt-default", def, gtStore{def}, batches, prog, engine.FullProcessing)
	st := stinger.MustNew(stinger.DefaultConfig())
	stRes := analyticsWorkload(opts, "ablation/stinger", st, stStore{st}, batches, prog, engine.FullProcessing)

	t := Table{
		ID:      "ablation",
		Title:   "SGH/CAL feature study: BFS full-processing throughput, Hollywood-2009 stand-in (Medges/s)",
		Columns: []string{"configuration", "throughput", "vs STINGER", "vs GT-full"},
	}
	stM := stRes.WorkMEPS()
	addRow := func(name string, r workloadResult) {
		m := r.WorkMEPS()
		vsST, vsFull := 0.0, 0.0
		if stM > 0 {
			vsST = m / stM
		}
		if f := full.WorkMEPS(); f > 0 {
			vsFull = m / f
		}
		t.AddRow(name, f2(m), f2(vsST), f2(vsFull))
	}
	addRow("GT (SGH+CAL)", full)
	addRow("GT (no SGH)", noSGH)
	addRow("GT (no CAL)", noCAL)
	addRow("GT (neither)", neither)
	addRow("GT default", defRes)
	t.AddRow("STINGER", f2(stM), "1.00", "")

	if f := full.WorkMEPS(); f > 0 {
		contribution := (f - neither.WorkMEPS()) / f
		t.AddNote("SGH+CAL combined contribution: %.0f%% of GT analytics throughput (paper: over 91%%)", 100*contribution)
	}
	if stM > 0 {
		t.AddNote("GT without both features vs STINGER: %.2fx (paper: ~1.5x)", neither.WorkMEPS()/stM)
	}
	t.AddNote("GT default is the adaptive slice/cuckoo store with SGH and no CAL; its full iterations walk only the active sources, split across GOMAXPROCS workers (every other row runs on one)")
	return t, nil
}
