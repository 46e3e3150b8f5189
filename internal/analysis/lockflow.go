package analysis

// The held-lock engine behind lockhold and lockorder. One walker runs the
// must-hold dataflow over a function body's CFG (cfg.go; intersection
// meet in dataflow.go), then replays each reachable block from its
// converged entry state and emits three kinds of event, each carrying the
// locks provably held just before it:
//
//   - acquire: Lock/RLock on a sync.Mutex or sync.RWMutex;
//   - block: an operation that parks the goroutine or hits a slow
//     syscall — fsync, time.Sleep, (*sync.WaitGroup).Wait, a channel send
//     or receive, a select without a default clause. sync.Cond.Wait is
//     not one: it releases its mutex while parked;
//   - call: any other statically resolved call.
//
// A lock counts as held at a point only when every path from its Lock
// reaches that point without an Unlock; a deferred Unlock holds it to
// function exit. Each lock is held under two names, and a name is
// released only by an Unlock that renders the same way, so the two
// families evolve exactly as two separate passes would:
//
//   - its expression (s.mu, s.mus[i], mu — locals included), which
//     lockhold reports;
//   - its canonical module-wide name, which lockorder orders:
//     pkg.Type.field for struct fields (indexes and derefs peeled, so
//     every shard of a mutex slice shares one name), pkg.var for package
//     variables, and none for function-local mutexes.
//
// Function literals are walked as separate contexts that start with
// nothing held — a goroutine or deferred closure does not hold its
// spawner's locks — and their events are marked nested. A deferred call
// runs at exit, so it is emitted with no held set, but it still counts
// toward what its function does. Select comm clauses emit nothing: the
// SelectStmt carries the blocking op.
//
// closeOverCalls is the one transitive step: it carries per-function
// facts (lockhold's blocking ops, lockorder's acquisitions) up the call
// events until nothing changes.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// lockName is one must-hold fact: a lock under one of its two names.
type lockName struct {
	name      string
	canonical bool
}

// heldSet holds the lock names provably held at a point.
type heldSet map[lockName]bool

// update acquires (hold set) or releases a lock under both its names.
func (h heldSet) update(expr, canonical string, hold bool) {
	for _, l := range [...]lockName{{expr, false}, {canonical, true}} {
		switch {
		case l.name == "":
		case hold:
			h[l] = true
		default:
			delete(h, l)
		}
	}
}

// names lists one family of held names, sorted.
func (h heldSet) names(canonical bool) []string {
	var out []string
	for l := range h {
		if l.canonical == canonical {
			out = append(out, l.name)
		}
	}
	sort.Strings(out)
	return out
}

func intersectHeld(a, b heldSet) heldSet {
	out := make(heldSet)
	for l := range a {
		if b[l] {
			out[l] = true
		}
	}
	return out
}

type flowKind int

const (
	flowAcquire flowKind = iota
	flowBlock
	flowCall
)

// flowEvent is one lock-relevant point in a function body.
type flowEvent struct {
	kind flowKind
	pos  token.Pos
	// held is what is held just before the event: nil when nothing is,
	// and for a deferred call.
	held   heldSet
	nested bool        // inside a function literal
	lock   string      // acquire: the canonical name, "" for a local
	desc   string      // block: what blocks
	callee *types.Func // call
}

type lockWalker struct {
	info   *types.Info
	nested bool
	events []flowEvent
}

// lockFlow returns the events of body and of the function literals
// nested in it, in replay order.
func lockFlow(info *types.Info, body *ast.BlockStmt) []flowEvent {
	w := &lockWalker{info: info}
	w.walk(body)
	return w.events
}

func (w *lockWalker) walk(body *ast.BlockStmt) {
	cfg := BuildCFG(body)
	ins := SolveForward(cfg, heldSet{}, intersectHeld, maps.Clone, maps.Equal,
		func(b *CFGBlock, in heldSet) heldSet {
			w.block(cfg, b, in, false)
			return in
		})
	for _, b := range cfg.Blocks {
		if in, reached := ins[b]; reached {
			w.block(cfg, b, maps.Clone(in), true)
		}
	}
}

func (w *lockWalker) literal(lit *ast.FuncLit) {
	outer := w.nested
	w.nested = true
	w.walk(lit.Body)
	w.nested = outer
}

func (w *lockWalker) add(ev flowEvent, held heldSet) {
	if len(held) > 0 {
		ev.held = maps.Clone(held)
	}
	ev.nested = w.nested
	w.events = append(w.events, ev)
}

// block replays one block's nodes in evaluation order, updating held.
// With emit set it records events and walks the literals the block
// creates, each exactly once.
func (w *lockWalker) block(cfg *CFG, b *CFGBlock, held heldSet, emit bool) {
	for _, n := range b.Nodes {
		if cfg.Comm[n] {
			continue
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if !emit {
				continue
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				w.literal(lit)
			} else if _, _, _, isLock := lockOp(w.info, n.Call); !isLock {
				w.call(n.Call, nil)
			}
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && emit {
				w.literal(lit)
			}
		case *ast.SelectStmt:
			if emit && !selectHasDefault(n) {
				w.add(flowEvent{kind: flowBlock, pos: n.Select, desc: "select"}, held)
			}
		case *ast.RangeStmt:
			// The range expression was its own node in the predecessor
			// block; the per-iteration assignment carries no events.
		default:
			w.scan(n, held, emit)
			if s, ok := n.(*ast.SendStmt); ok && emit {
				w.add(flowEvent{kind: flowBlock, pos: s.Arrow, desc: "channel send"}, held)
			}
		}
	}
}

// scan walks one node for lock operations, channel receives and calls,
// in source order.
func (w *lockWalker) scan(n ast.Node, held heldSet, emit bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if emit {
				w.literal(x)
			}
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && emit {
				w.add(flowEvent{kind: flowBlock, pos: x.OpPos, desc: "channel receive"}, held)
			}
		case *ast.CallExpr:
			if expr, canonical, acquire, ok := lockOp(w.info, x); ok {
				if acquire && emit {
					w.add(flowEvent{kind: flowAcquire, pos: x.Pos(), lock: canonical}, held)
				}
				held.update(expr, canonical, acquire)
				return false
			}
			if emit {
				w.call(x, held)
			}
		}
		return true
	})
}

// call emits a statically resolved call: as a block when it is a
// well-known blocker, as a call otherwise.
func (w *lockWalker) call(call *ast.CallExpr, held heldSet) {
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return
	}
	if d := wellKnownBlocker(fn); d != "" {
		w.add(flowEvent{kind: flowBlock, pos: call.Pos(), desc: d}, held)
		return
	}
	w.add(flowEvent{kind: flowCall, pos: call.Pos(), callee: fn}, held)
}

// wellKnownBlocker classifies stdlib calls that park the goroutine or hit
// a slow syscall.
func wellKnownBlocker(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		if fn.Name() == "Sync" && recvNamed(fn) == "File" {
			return "(*os.File).Sync (fsync)"
		}
	case "sync":
		if fn.Name() == "Wait" && recvNamed(fn) == "WaitGroup" {
			return "(*sync.WaitGroup).Wait"
		}
	}
	return ""
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// lockOp classifies mu.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex and names the lock both ways: its expression, and its
// canonical name ("" for a local).
func lockOp(info *types.Info, call *ast.CallExpr) (expr, canonical string, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false, false
	}
	if recv := recvNamed(fn); recv != "Mutex" && recv != "RWMutex" {
		return "", "", false, false
	}
	return types.ExprString(sel.X), canonicalLockName(info, sel.X), acquire, true
}

// canonicalLockName names a mutex expression module-wide: pkg.Type.field
// for struct fields (indexes and derefs peeled), pkg.var for package
// variables, "" for locals.
func canonicalLockName(info *types.Info, e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				t := sel.Recv()
				for p, ok := t.(*types.Pointer); ok; p, ok = t.(*types.Pointer) {
					t = p.Elem()
				}
				if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
					return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + x.Sel.Name
				}
				return ""
			}
			return packageVarName(info.Uses[x.Sel])
		case *ast.Ident:
			return packageVarName(info.Uses[x])
		default:
			return ""
		}
	}
}

// packageVarName renders a package-level variable as pkg.var, anything
// else as "".
func packageVarName(obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && packageLevelVar(v) {
		return v.Pkg().Name() + "." + v.Name()
	}
	return ""
}

func packageLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// addFact records fact for function key.
func addFact(facts map[string]map[string]bool, key, fact string) {
	if facts[key] == nil {
		facts[key] = make(map[string]bool)
	}
	facts[key][fact] = true
}

// closeOverCalls adds to each function's facts those of every function
// it calls, until nothing changes: afterwards facts[f] holds every fact
// some call chain from f reaches.
func closeOverCalls(facts map[string]map[string]bool, calls map[string][]string) {
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			for _, callee := range callees {
				for f := range facts[callee] {
					if !facts[caller][f] {
						addFact(facts, caller, f)
						changed = true
					}
				}
			}
		}
	}
}
