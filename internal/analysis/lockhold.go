package analysis

// lockhold: no sync.Mutex / sync.RWMutex may be held across a blocking
// operation. Blocking means: fsync ((*os.File).Sync), time.Sleep, a
// channel send or receive, a select without a default clause,
// (*sync.WaitGroup).Wait — or a call to a same-package function that
// transitively does one of those. sync.Cond.Wait is exempt: it releases
// its mutex while parked, which is the sanctioned way to block under a
// lock.
//
// This is a report over the shared held-lock engine (lockflow.go),
// reading each lock by its expression. Cross-package calls are NOT
// considered blocking — an API's internal waiting is that package's own
// contract — so the check encodes "don't hold YOUR lock across YOUR
// scheduling points".
//
// A blocking callee is described by its first blocking op in source
// order, chosen only after the same-package closure has converged, so a
// message never depends on map order. A function already on the chain
// being described is skipped, which ends mutual recursion.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockHold is the lockhold analyzer.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no sync.Mutex/RWMutex held across blocking calls (fsync, sleep, channel ops, WaitGroup.Wait)",
	Scope: func(pkgPath, filename string) bool {
		switch {
		case strings.HasSuffix(pkgPath, "/internal/wal"),
			strings.HasSuffix(pkgPath, "/internal/ingest"):
			return true
		case !strings.Contains(pkgPath, "/"): // the root facade (session layer)
			return true
		}
		return false
	},
	Run: runLockHold,
}

type lockHold struct {
	pass *Pass
	// own holds each function's blocking ops and same-package calls
	// outside nested literals, in source order.
	own map[string][]flowEvent
	// blocks holds the blocking ops each function may reach.
	blocks map[string]map[string]bool
	descs  map[string]string
}

func runLockHold(pass *Pass) {
	lh := &lockHold{
		pass:   pass,
		own:    make(map[string][]flowEvent),
		blocks: make(map[string]map[string]bool),
		descs:  make(map[string]string),
	}
	calls := make(map[string][]string)
	var bodies [][]flowEvent
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := funcKey(fn)
			events := lockFlow(pass.Info, fd.Body)
			bodies = append(bodies, events)
			for _, ev := range events {
				switch {
				case ev.nested:
					continue
				case ev.kind == flowBlock:
					addFact(lh.blocks, key, ev.desc)
				case ev.kind == flowCall && ev.callee.Pkg() == pass.Pkg:
					calls[key] = append(calls[key], funcKey(ev.callee))
				default:
					continue
				}
				lh.own[key] = append(lh.own[key], ev)
			}
			sort.SliceStable(lh.own[key], func(i, j int) bool { return lh.own[key][i].pos < lh.own[key][j].pos })
		}
	}
	closeOverCalls(lh.blocks, calls)

	for _, events := range bodies {
		for _, ev := range events {
			held := ev.held.names(false)
			desc := ev.desc
			switch {
			case len(held) == 0:
				continue
			case ev.kind == flowBlock && desc == "select":
				desc = "select (blocking)"
			case ev.kind == flowCall && ev.callee.Pkg() == pass.Pkg:
				desc = lh.callDesc(ev.callee, map[string]bool{})
			}
			if desc == "" {
				continue
			}
			for _, h := range held {
				pass.Reportf(ev.pos, "%s while holding %s", desc, h)
			}
		}
	}
}

// callDesc renders a call to a same-package function that blocks, or ""
// when it does not block other than through chain.
func (lh *lockHold) callDesc(fn *types.Func, chain map[string]bool) string {
	key := funcKey(fn)
	if len(lh.blocks[key]) == 0 || chain[key] {
		return ""
	}
	d, ok := lh.descs[key]
	if !ok {
		chain[key] = true
		for _, ev := range lh.own[key] {
			if d = ev.desc; ev.kind == flowCall {
				d = lh.callDesc(ev.callee, chain)
			}
			if d != "" {
				break
			}
		}
		delete(chain, key)
		if d == "" {
			return ""
		}
		lh.descs[key] = d
	}
	return fmt.Sprintf("call to %s (blocks: %s)", fn.Name(), d)
}
