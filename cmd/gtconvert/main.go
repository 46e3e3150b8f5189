// Command gtconvert converts between the formats this repository speaks:
// text edge lists (SNAP / Matrix-Market style) and GraphTinker binary
// snapshots. It can also summarize either.
//
//	gtconvert -in graph.txt -out graph.snap            # text -> snapshot
//	gtconvert -in graph.snap -out graph.txt            # snapshot -> text
//	gtconvert -in graph.txt -stats                     # parse + summarize
//	gtconvert -in mm.mtx -base 1 -symmetrize -out g.snap
//	gtconvert -in old.snap -out new.snap               # upgrade a snapshot
//
// Snapshots are read in any format ever written (a sharded store's
// shards merge into one graph) and written in the current one, so a
// snapshot-to-snapshot run is the one-shot upgrade of an old file.
//
// Formats are inferred from file extensions (.snap = snapshot, anything
// else = text edge list) and overridable with -infmt/-outfmt.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphtinker"
)

func main() {
	var (
		in         = flag.String("in", "", "input path (required)")
		out        = flag.String("out", "", "output path (omit with -stats)")
		inFmt      = flag.String("infmt", "", "input format: text | snap (default: by extension)")
		outFmt     = flag.String("outfmt", "", "output format: text | snap (default: by extension)")
		base       = flag.Uint64("base", 0, "subtract this from text ids (1 for Matrix Market)")
		symmetrize = flag.Bool("symmetrize", false, "emit both directions for text input")
		stats      = flag.Bool("stats", false, "print a summary of the input graph")
	)
	flag.Parse()
	if *in == "" {
		fatal("need -in (see -h)")
	}
	if *out == "" && !*stats {
		fatal("need -out or -stats")
	}

	g, err := load(*in, formatOf(*inFmt, *in), *base, *symmetrize)
	if err != nil {
		fatal("%v", err)
	}

	if *stats {
		printStats(g)
	}
	if *out != "" {
		if err := save(g, *out, formatOf(*outFmt, *out)); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %s (%d edges)\n", *out, g.NumEdges())
	}
}

func formatOf(override, path string) string {
	if override != "" {
		return override
	}
	if strings.HasSuffix(path, ".snap") {
		return "snap"
	}
	return "text"
}

func load(path, format string, base uint64, symmetrize bool) (*graphtinker.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; close error carries no data
	switch format {
	case "snap":
		return graphtinker.ReadSnapshot(f, nil)
	case "text":
		edges, err := graphtinker.ReadEdgeList(f, graphtinker.EdgeFileOptions{
			Base: base, Symmetrize: symmetrize,
		})
		if err != nil {
			return nil, err
		}
		g := graphtinker.MustNew(graphtinker.DefaultConfig())
		g.InsertBatch(edges)
		return g, nil
	default:
		return nil, fmt.Errorf("gtconvert: unknown format %q", format)
	}
}

func save(g *graphtinker.Graph, path, format string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Close flushes write-back; its error is the last chance to learn the
	// output is torn, so it must not lose to a nil write error.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	switch format {
	case "snap":
		return g.WriteSnapshot(f)
	case "text":
		return graphtinker.WriteGraphEdgeList(f, g)
	default:
		return fmt.Errorf("gtconvert: unknown format %q", format)
	}
}

func printStats(g *graphtinker.Graph) {
	maxID, any := g.MaxVertexID()
	fmt.Printf("edges:            %d\n", g.NumEdges())
	if any {
		fmt.Printf("max vertex id:    %d\n", maxID)
	}
	fmt.Printf("non-empty sources: %d\n", g.NonEmptySources())
	csr := g.ExportCSR()
	tc := graphtinker.CountTriangles(csr)
	fmt.Printf("triangles:        %d\n", tc.Total)
	h := g.AnalyzeProbes()
	fmt.Printf("mean probe:       %.2f (max %d)\n", h.MeanProbe(), h.MaxProbe)
	fmt.Printf("mean generation:  %.2f (max %d)\n", h.MeanGeneration(), h.MaxGeneration)
	occ := g.OccupancyReport()
	fmt.Printf("edgeblock fill:   %.1f%%\n", 100*occ.Fill())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gtconvert: "+format+"\n", args...)
	os.Exit(1)
}
