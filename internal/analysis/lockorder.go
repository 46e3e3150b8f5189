package analysis

// lockorder: the module's mutexes must be acquired in one global order.
//
// This is a report over the shared held-lock engine (lockflow.go),
// reading each lock by its canonical name: acquiring lock B while
// provably holding lock A observes the ordering edge A -> B. Acquisitions
// are also closed over the module's calls — calling a function that
// (transitively) acquires B while holding A observes the same edge. Locks
// are named canonically:
//
//   - struct-field mutexes:  pkg.Type.field   (core.Parallel.wmu — the
//     index of a per-shard mutex slice is peeled, so all shards share
//     one name)
//   - package-level mutexes: pkg.var
//   - function-local mutexes are skipped: they cannot participate in a
//     cross-function ordering cycle under this naming.
//
// The observed edge set is diffed against the committed spec
// (lockorder.spec at the module root, lines of "A -> B"): an observed
// edge missing from the spec is a finding (new ordering edges must be
// added deliberately), and a spec entry that is never observed is a
// stale-spec finding. Independently, any multi-lock cycle in the
// observed graph is reported; a self-edge (A -> A, e.g. shard-ordered
// acquisition of a mutex slice) is allowed only when the spec lists it.
//
// Test files are excluded: the ordering contract is for production code.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder is the lockorder module analyzer.
var LockOrder = &ModuleAnalyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition order must match lockorder.spec and stay acyclic",
	Run:  runLockOrder,
}

const lockOrderSpecFile = "lockorder.spec"

// lockEdge is one observed ordering: from is held when to is acquired.
type lockEdge struct {
	from, to string
}

func runLockOrder(mp *ModulePass) {
	edges := make(map[lockEdge]token.Pos)
	observe := func(from []string, to string, pos token.Pos) {
		for _, h := range from {
			if _, seen := edges[lockEdge{h, to}]; !seen {
				edges[lockEdge{h, to}] = pos
			}
		}
	}

	// Direct edges, direct acquisitions, and the calls made under held
	// locks, function by function in key order.
	acquires := make(map[string]map[string]bool)
	calls := make(map[string][]string)
	var callsUnder []flowEvent
	funcs := declaredFuncs(mp.Packages)
	for _, key := range sortedKeys(funcs) {
		fn := funcs[key]
		for _, ev := range lockFlow(fn.Pkg.Info, fn.Decl.Body) {
			switch ev.kind {
			case flowAcquire:
				if ev.lock == "" {
					continue
				}
				if !ev.nested {
					addFact(acquires, key, ev.lock)
				}
				observe(ev.held.names(true), ev.lock, ev.pos)
			case flowCall:
				if !ev.nested {
					calls[key] = append(calls[key], funcKey(ev.callee))
				}
				if ev.held != nil {
					callsUnder = append(callsUnder, ev)
				}
			}
		}
	}

	// Edges induced by calls under held locks.
	closeOverCalls(acquires, calls)
	for _, ev := range callsUnder {
		for lock := range acquires[funcKey(ev.callee)] {
			observe(ev.held.names(true), lock, ev.pos)
		}
	}

	spec, specLines, specErr := loadLockOrderSpec(mp.Dir)
	if specErr != nil {
		mp.ReportAt(token.Position{Filename: filepath.Join(mp.Dir, lockOrderSpecFile), Line: 1},
			"unreadable %s: %v", lockOrderSpecFile, specErr)
	}

	// Findings: observed edges not in the spec.
	for _, e := range sortedEdges(edges) {
		if !spec[e] {
			mp.Reportf(edges[e], "lock-order edge %s -> %s not in %s (add it deliberately or fix the acquisition order)",
				e.from, e.to, lockOrderSpecFile)
		}
	}

	// Findings: stale spec entries.
	for _, se := range specLines {
		if _, ok := edges[se.edge]; !ok {
			mp.ReportAt(token.Position{Filename: filepath.Join(mp.Dir, lockOrderSpecFile), Line: se.line, Column: 1},
				"stale %s entry: edge %s -> %s is never observed", lockOrderSpecFile, se.edge.from, se.edge.to)
		}
	}

	// Findings: cycles in the observed graph. Self-edges are allowed when
	// spec'd (deliberate same-class ordering, e.g. index-ordered shard
	// locks); multi-lock cycles are always findings.
	for _, cyc := range lockCycles(sortedEdges(edges)) {
		if len(cyc) == 1 {
			e := lockEdge{from: cyc[0], to: cyc[0]}
			if spec[e] {
				continue
			}
			mp.Reportf(edges[e], "lock-order cycle: %s -> %s (self-edge not sanctioned by %s)",
				cyc[0], cyc[0], lockOrderSpecFile)
			continue
		}
		pos := token.NoPos
		for _, e := range sortedEdges(edges) {
			if e.from != e.to && inCycle(cyc, e.from) && inCycle(cyc, e.to) {
				pos = edges[e]
				break
			}
		}
		mp.Reportf(pos, "lock-order cycle: %s", strings.Join(append(append([]string{}, cyc...), cyc[0]), " -> "))
	}
}

// specEntry is one parsed lockorder.spec line.
type specEntry struct {
	edge lockEdge
	line int
}

// loadLockOrderSpec parses "<A> -> <B>" lines; '#' starts a comment. A
// missing file is an empty spec (every observed edge is then a finding).
func loadLockOrderSpec(dir string) (map[lockEdge]bool, []specEntry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, lockOrderSpecFile))
	if err != nil {
		if os.IsNotExist(err) {
			return map[lockEdge]bool{}, nil, nil
		}
		return map[lockEdge]bool{}, nil, err
	}
	spec := make(map[lockEdge]bool)
	var entries []specEntry
	for i, line := range strings.Split(string(raw), "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, "->")
		if len(parts) != 2 {
			return spec, entries, fmt.Errorf("line %d: want \"A -> B\", got %q", i+1, line)
		}
		e := lockEdge{from: strings.TrimSpace(parts[0]), to: strings.TrimSpace(parts[1])}
		spec[e] = true
		entries = append(entries, specEntry{edge: e, line: i + 1})
	}
	return spec, entries, nil
}

// lockCycles finds cycles in the observed lock graph: every strongly
// connected component of two or more locks (returned in a deterministic
// rotation), plus single-lock self-edges, each as a []string of the
// locks on the cycle.
func lockCycles(edges []lockEdge) [][]string {
	succ := make(map[string][]string)
	nodes := make(map[string]bool)
	selfEdge := make(map[string]bool)
	for _, e := range edges {
		nodes[e.from], nodes[e.to] = true, true
		if e.from == e.to {
			selfEdge[e.from] = true
			continue
		}
		succ[e.from] = append(succ[e.from], e.to)
	}

	// Tarjan's SCC.
	var (
		index   = make(map[string]int)
		low     = make(map[string]int)
		onStack = make(map[string]bool)
		stack   []string
		next    int
		sccs    [][]string
	)
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}

	var out [][]string
	for _, n := range names {
		if selfEdge[n] {
			out = append(out, []string{n})
		}
	}
	out = append(out, sccs...)
	return out
}

func sortedEdges(m map[lockEdge]token.Pos) []lockEdge {
	out := make([]lockEdge, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

func inCycle(cyc []string, name string) bool {
	for _, c := range cyc {
		if c == name {
			return true
		}
	}
	return false
}
