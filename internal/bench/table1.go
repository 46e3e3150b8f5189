package bench

import (
	"fmt"

	"graphtinker/internal/datasets"
)

// Table1 regenerates the paper's dataset inventory, reporting both the
// paper's full-scale counts and the counts actually generated at the
// harness scale divisor.
func Table1(opts Options) (Table, error) {
	t := Table{
		ID:    "table1",
		Title: "Graph datasets under evaluation (paper counts vs generated at 1/" + fmt.Sprint(datasets.RoundDivisor(opts.ScaleDivisor)) + " scale)",
		Columns: []string{
			"dataset", "type", "paper #V", "paper #E",
			"gen #V", "gen tuples", "gen unique", "avg deg", "max deg",
		},
	}
	for _, d := range datasets.Table1() {
		p, err := d.ScaledParams(opts.ScaleDivisor)
		if err != nil {
			return t, err
		}
		total := int(p.NumEdges)
		if d.Symmetric {
			total *= 2
		}
		batch := total / opts.Batches
		if batch < 1 {
			batch = 1
		}
		st, err := d.Measure(opts.ScaleDivisor, batch)
		if err != nil {
			return t, err
		}
		t.AddRow(
			st.Name, st.Kind,
			fmt.Sprint(st.PaperVertices), fmt.Sprint(st.PaperEdges),
			fmt.Sprint(st.GenVertices), fmt.Sprint(st.GenEdges), fmt.Sprint(st.UniqueEdges),
			f1(st.AvgOutDegree), fmt.Sprint(st.MaxOutDegree),
		)
	}
	t.AddNote("real-world datasets are synthetic stand-ins; see DESIGN.md (Substitutions)")
	return t, nil
}
