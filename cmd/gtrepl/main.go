// Command gtrepl is a tiny interactive shell over the public GraphTinker
// API, useful for poking at the data structure's behaviour by hand.
//
//	$ gtrepl
//	> insert 1 2 1.5
//	> insert 1 3 1
//	> find 1 2
//	1.5
//	> degree 1
//	2
//	> bfs 1
//	v=2 dist=1  v=3 dist=1
//	> delete 1 2
//	> stats
//	...
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"graphtinker"
)

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gtrepl:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	g := graphtinker.MustNew(graphtinker.DefaultConfig())
	sc := bufio.NewScanner(in)
	fmt.Fprintln(out, "gtrepl — commands: insert s d [w] | delete s d | find s d | degree v | edges v | bfs root | sssp root | cc | stats | occupancy | help | quit")
	prompt := func() { fmt.Fprint(out, "> ") }
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			prompt()
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Fprintln(out, "insert s d [w] | delete s d | find s d | degree v | edges v | bfs root | sssp root | cc | stats | occupancy | quit")
		case "insert":
			s, d, w, err := parseEdge(args, true)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if g.InsertEdge(s, d, w) {
				fmt.Fprintln(out, "inserted")
			} else {
				fmt.Fprintln(out, "updated")
			}
		case "delete":
			s, d, _, err := parseEdge(args, false)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if g.DeleteEdge(s, d) {
				fmt.Fprintln(out, "deleted")
			} else {
				fmt.Fprintln(out, "not found")
			}
		case "find":
			s, d, _, err := parseEdge(args, false)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if w, ok := g.FindEdge(s, d); ok {
				fmt.Fprintln(out, w)
			} else {
				fmt.Fprintln(out, "not found")
			}
		case "degree":
			v, err := parseID(args, 0)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintln(out, g.OutDegree(v))
		case "edges":
			v, err := parseID(args, 0)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			g.ForEachOutEdge(v, func(dst uint64, w float32) bool {
				fmt.Fprintf(out, "%d->%d w=%g\n", v, dst, w)
				return true
			})
		case "bfs", "sssp":
			root, err := parseID(args, 0)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			prog := graphtinker.BFS(root)
			if cmd == "sssp" {
				prog = graphtinker.SSSP(root)
			}
			eng := graphtinker.MustNewEngine(g, prog, graphtinker.EngineOptions{Mode: graphtinker.Hybrid})
			res := eng.RunFromScratch()
			n := 0
			for v := uint64(0); v < eng.NumVertices(); v++ {
				if dv := eng.Value(v); !math.IsInf(dv, 1) && v != root {
					fmt.Fprintf(out, "v=%d dist=%g\n", v, dv)
					n++
				}
			}
			fmt.Fprintf(out, "%d reached, %d iterations, %.2f Medges/s\n", n, len(res.Iterations), res.ThroughputMEPS())
		case "cc":
			eng := graphtinker.MustNewEngine(g, graphtinker.CC(), graphtinker.EngineOptions{Mode: graphtinker.Hybrid})
			eng.RunFromScratch()
			comps := map[float64]int{}
			for v := uint64(0); v < eng.NumVertices(); v++ {
				comps[eng.Value(v)]++
			}
			fmt.Fprintf(out, "%d components over %d vertices\n", len(comps), eng.NumVertices())
		case "stats":
			st := g.Stats()
			fmt.Fprintf(out, "edges=%d inserts=%d updates=%d deletes=%d cells=%d swaps=%d branches=%d\n",
				g.NumEdges(), st.Inserts, st.Updates, st.Deletes, st.CellsInspected, st.RHHSwaps, st.Branches)
		case "occupancy":
			o := g.OccupancyReport()
			fmt.Fprintf(out, "live=%d cells=%d fill=%.1f%% blocks=%d\n", o.LiveEdges, o.CellsAllocated, 100*o.Fill(), o.LiveBlocks)
		default:
			fmt.Fprintf(out, "unknown command %q (try help)\n", cmd)
		}
		prompt()
	}
	return sc.Err()
}

func parseEdge(args []string, withWeight bool) (s, d uint64, w float32, err error) {
	if len(args) < 2 {
		return 0, 0, 0, fmt.Errorf("need source and destination ids")
	}
	if s, err = strconv.ParseUint(args[0], 10, 64); err != nil {
		return
	}
	if d, err = strconv.ParseUint(args[1], 10, 64); err != nil {
		return
	}
	w = 1
	if withWeight && len(args) >= 3 {
		var wf float64
		if wf, err = strconv.ParseFloat(args[2], 32); err != nil {
			return
		}
		w = float32(wf)
	}
	return
}

func parseID(args []string, def uint64) (uint64, error) {
	if len(args) == 0 {
		return def, nil
	}
	return strconv.ParseUint(args[0], 10, 64)
}
