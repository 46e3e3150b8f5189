package analysis

// bufretain: values documented no-retention must not outlive the call
// they are passed into. The contract is declared in a doc comment:
//
//	//gtlint:noretain <param>[,<param>...]
//
// on a function/method declaration, or on an interface method — every
// module implementation with the same name and signature inherits the
// interface's contract, and calls through the interface honor it. The
// canonical examples are the ingest pipeline's recycled flush buffers
// handed to ingest.Target.ApplyOps (wal.ReplayTarget.ApplyOps, which
// replay's reused buffer goes through too) and the WAL encode scratch
// buffer: all are recycled by their owner the moment the callee returns.
//
// Inside a marked function the named parameters are taint sources for a
// may-analysis on the CFG (union meet): aliases created by assignment,
// reslicing, append-to-the-buffer, defined-type conversion, address-of,
// or composite literals carry the taint; element reads and
// spread-append into another slice are sanctioned copies and do not.
// Sinks — points where the value provably survives the call — are
// findings:
//
//   - stores into struct fields, package variables, or through pointers
//   - channel sends
//   - returning the value
//   - capture by (or argument to) a spawned goroutine
//   - passing it to a module-local callee that does not itself declare
//     //gtlint:noretain for that parameter, or through a dynamic call
//
// Deferred calls are not sinks (they run before the function returns),
// and calls into non-module packages are trusted to follow stdlib
// conventions. Test files are excluded.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// BufRetain is the bufretain module analyzer.
var BufRetain = &ModuleAnalyzer{
	Name: "bufretain",
	Doc:  "//gtlint:noretain parameters must not escape into heap stores, channels, returns, or goroutines",
	Run:  runBufRetain,
}

// noretainPrefix is the contract marker:
//
//	//gtlint:noretain <param>[,<param>...]
const noretainPrefix = "//gtlint:noretain"

type ifaceSig struct {
	name string // method name
	sig  string // receiver-less signature string, package-name qualified
}

type bufRetainCtx struct {
	mp    *ModulePass
	funcs map[string]*FuncNode
	// markedFuncs maps function key -> no-retention parameter indexes.
	markedFuncs map[string]map[int]bool
	// markedIfaces maps interface method name+signature -> indexes; used
	// both to propagate the contract to implementations and to sanction
	// calls through the interface.
	markedIfaces map[ifaceSig]map[int]bool
}

func runBufRetain(mp *ModulePass) {
	ctx := &bufRetainCtx{
		mp:           mp,
		funcs:        declaredFuncs(mp.Packages),
		markedFuncs:  make(map[string]map[int]bool),
		markedIfaces: make(map[ifaceSig]map[int]bool),
	}
	ctx.collectMarkers()
	ctx.inheritInterfaceContracts()

	for _, key := range sortedKeys(ctx.markedFuncs) {
		fn, ok := ctx.funcs[key]
		if !ok {
			continue // marked interface method: no body to analyze
		}
		ctx.analyzeMarked(fn, ctx.markedFuncs[key])
	}
}

// sigString renders a receiver-less, package-name-qualified signature.
func sigString(sig *types.Signature) string {
	return types.TypeString(
		types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic()),
		func(p *types.Package) string { return p.Name() })
}

// parseNoretain extracts parameter indexes from a doc group's marker
// line; ok is false when no marker is present. Unknown parameter names
// are reported through report.
func parseNoretain(doc *ast.CommentGroup, params *ast.FieldList, report func(pos token.Pos, format string, args ...any)) (map[int]bool, bool) {
	if doc == nil {
		return nil, false
	}
	for _, c := range doc.List {
		rest, found := strings.CutPrefix(c.Text, noretainPrefix)
		if !found {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 1 {
			report(c.Pos(), "malformed %s: want \"%s <param>[,<param>...]\"", noretainPrefix, noretainPrefix)
			return nil, false
		}
		byName := make(map[string]int)
		idx := 0
		if params != nil {
			for _, f := range params.List {
				if len(f.Names) == 0 {
					idx++
					continue
				}
				for _, n := range f.Names {
					byName[n.Name] = idx
					idx++
				}
			}
		}
		out := make(map[int]bool)
		for _, name := range strings.Split(fields[0], ",") {
			i, ok := byName[name]
			if !ok {
				report(c.Pos(), "%s names unknown parameter %q", noretainPrefix, name)
				return nil, false
			}
			out[i] = true
		}
		return out, true
	}
	return nil, false
}

// collectMarkers gathers noretain contracts from function declarations
// and interface methods in non-test files.
func (c *bufRetainCtx) collectMarkers() {
	for _, pkg := range c.mp.Packages {
		for _, f := range pkg.Files {
			if isTestFile(pkg, f) {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					idxs, ok := parseNoretain(d.Doc, d.Type.Params, c.mp.Reportf)
					if !ok {
						continue
					}
					if fn, isFn := pkg.Info.Defs[d.Name].(*types.Func); isFn {
						c.markedFuncs[funcKey(fn)] = idxs
					}
				case *ast.GenDecl:
					c.collectIfaceMarkers(pkg, d)
				}
			}
		}
	}
}

func (c *bufRetainCtx) collectIfaceMarkers(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok {
			continue
		}
		for _, m := range it.Methods.List {
			if len(m.Names) == 0 {
				continue // embedded interface
			}
			ft, ok := m.Type.(*ast.FuncType)
			if !ok {
				continue
			}
			idxs, ok := parseNoretain(m.Doc, ft.Params, c.mp.Reportf)
			if !ok {
				continue
			}
			fn, isFn := pkg.Info.Defs[m.Names[0]].(*types.Func)
			if !isFn {
				continue
			}
			sig := fn.Type().(*types.Signature)
			c.markedIfaces[ifaceSig{name: fn.Name(), sig: sigString(sig)}] = idxs
		}
	}
}

// inheritInterfaceContracts marks every module method whose name and
// signature match a marked interface method. Matching is by canonical
// signature string, not types.Implements: the loader type-checks each
// package in two universes, so type identity does not hold across them.
func (c *bufRetainCtx) inheritInterfaceContracts() {
	if len(c.markedIfaces) == 0 {
		return
	}
	for key, node := range c.funcs {
		if node.Decl.Recv == nil {
			continue
		}
		fn, ok := node.Pkg.Info.Defs[node.Decl.Name].(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		idxs, marked := c.markedIfaces[ifaceSig{name: fn.Name(), sig: sigString(sig)}]
		if !marked {
			continue
		}
		if c.markedFuncs[key] == nil {
			c.markedFuncs[key] = make(map[int]bool)
		}
		for i := range idxs {
			c.markedFuncs[key][i] = true
		}
	}
}

// taintSet is the may-analysis fact: objects aliasing a no-retention
// parameter, with the position that tainted them.
type taintSet map[types.Object]token.Pos

func copyTaint(t taintSet) taintSet {
	out := make(taintSet, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

func unionTaint(a, b taintSet) taintSet {
	out := copyTaint(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func equalTaint(a, b taintSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// analyzeMarked runs the taint pass over one marked function body.
func (c *bufRetainCtx) analyzeMarked(fn *FuncNode, idxs map[int]bool) {
	boundary := make(taintSet)
	idx := 0
	for _, f := range fn.Decl.Type.Params.List {
		names := f.Names
		if len(names) == 0 {
			idx++
			continue
		}
		for _, n := range names {
			if idxs[idx] {
				if obj := fn.Pkg.Info.Defs[n]; obj != nil {
					boundary[obj] = n.Pos()
				}
			}
			idx++
		}
	}
	if len(boundary) == 0 {
		return
	}

	w := &taintWalker{ctx: c, pkg: fn.Pkg}
	cfg := BuildCFG(fn.Decl.Body)
	ins := SolveForward(cfg, boundary, unionTaint, copyTaint, equalTaint,
		func(b *CFGBlock, in taintSet) taintSet {
			w.applyBlock(cfg, b, in, false)
			return in
		})
	reach := cfg.Reachable()
	for _, b := range cfg.Blocks {
		if !reach[b] {
			continue
		}
		in, ok := ins[b]
		if !ok {
			continue
		}
		w.applyBlock(cfg, b, copyTaint(in), true)
	}
}

type taintWalker struct {
	ctx *bufRetainCtx
	pkg *Package
}

// applyBlock replays one block's nodes, mutating the taint set; with
// report set it also emits sink diagnostics.
func (w *taintWalker) applyBlock(cfg *CFG, b *CFGBlock, taint taintSet, report bool) {
	for _, n := range b.Nodes {
		if cfg.Comm[n] {
			// Select comm clause: a receive never produces taint and the
			// send case was the head block's concern.
			continue
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.assign(n.Lhs, n.Rhs, taint, report)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, name := range vs.Names {
							lhs[i] = name
						}
						w.assign(lhs, vs.Values, taint, report)
					}
				}
			}
		case *ast.SendStmt:
			w.checkCalls(n.Value, taint, report)
			if report && w.tainted(n.Value, taint) {
				w.ctx.mp.Reportf(n.Arrow, "no-retention value %s sent on a channel", types.ExprString(n.Value))
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				w.checkCalls(r, taint, report)
				if report && w.tainted(r, taint) {
					w.ctx.mp.Reportf(r.Pos(), "no-retention value %s returned to the caller", types.ExprString(r))
				}
			}
		case *ast.GoStmt:
			if report {
				w.goStmt(n, taint)
			}
		case *ast.DeferStmt:
			// Deferred calls run before the function returns: not a sink.
		case *ast.ExprStmt:
			w.checkCalls(n.X, taint, report)
		case *ast.IncDecStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.EmptyStmt:
			// Element iteration and channel waits carry no aliases.
		case ast.Expr: // if/for conditions, switch tags
			w.checkCalls(n, taint, report)
		}
	}
}

// assign applies one (possibly parallel) assignment: plain local
// variables get strong updates; stores through fields, indexes of
// escaped bases, derefs, or package variables are sinks when the value
// is tainted.
func (w *taintWalker) assign(lhs, rhs []ast.Expr, taint taintSet, report bool) {
	for _, r := range rhs {
		w.checkCalls(r, taint, report)
	}
	if len(lhs) != len(rhs) {
		// Tuple assignment from a call: results of calls are never
		// tainted; strong-kill the targets.
		for _, l := range lhs {
			if obj := w.localObj(l); obj != nil {
				delete(taint, obj)
			}
		}
		return
	}
	for i, l := range lhs {
		r := rhs[i]
		rt := w.tainted(r, taint)
		if obj := w.localObj(l); obj != nil {
			if rt {
				taint[obj] = r.Pos()
			} else {
				delete(taint, obj)
			}
			continue
		}
		if rt && report && w.heapLvalue(l) {
			w.ctx.mp.Reportf(l.Pos(), "no-retention value %s stored into %s", types.ExprString(r), types.ExprString(l))
		}
	}
}

// goStmt reports taint escaping into a spawned goroutine: captured by
// the literal's closure, or passed as an argument (even to a callee with
// its own noretain contract — the goroutine outlives this call).
func (w *taintWalker) goStmt(g *ast.GoStmt, taint taintSet) {
	for _, arg := range g.Call.Args {
		if w.tainted(arg, taint) {
			w.ctx.mp.Reportf(arg.Pos(), "no-retention value %s passed to a spawned goroutine", types.ExprString(arg))
		}
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := w.pkg.Info.Uses[id]; obj != nil {
			if _, isTainted := taint[obj]; isTainted {
				w.ctx.mp.Reportf(id.Pos(), "no-retention value %s captured by a spawned goroutine", id.Name)
			}
		}
		return true
	})
}

// localObj resolves a plain identifier lvalue to its function-local (or
// parameter) object; any other lvalue shape returns nil.
func (w *taintWalker) localObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	var obj types.Object
	if o, ok := w.pkg.Info.Defs[id]; ok && o != nil {
		obj = o
	} else if o := w.pkg.Info.Uses[id]; o != nil {
		obj = o
	}
	if v, ok := obj.(*types.Var); ok && !packageLevelVar(v) && !v.IsField() {
		return v
	}
	return nil
}

// heapLvalue reports lvalue shapes that outlive the call: field
// selectors, derefs, package variables, and indexes of non-local bases.
func (w *taintWalker) heapLvalue(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		return w.localObj(x.X) == nil
	case *ast.Ident:
		if v, ok := w.pkg.Info.Uses[x].(*types.Var); ok {
			return packageLevelVar(v)
		}
	}
	return false
}

// tainted reports whether evaluating e may alias a no-retention value.
// Reads that copy elements (indexing, spread-append of value elements)
// are sanctioned and stay untainted.
func (w *taintWalker) tainted(e ast.Expr, taint taintSet) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.pkg.Info.Uses[x]; obj != nil {
			_, ok := taint[obj]
			return ok
		}
	case *ast.SliceExpr:
		return w.tainted(x.X, taint)
	case *ast.StarExpr:
		return w.tainted(x.X, taint)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return w.tainted(x.X, taint)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.tainted(el, taint) {
				return true
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				// append(tainted, ...) may return the tainted backing
				// array; append(dst, tainted...) copies elements.
				return id.Name == "append" && len(x.Args) > 0 && w.tainted(x.Args[0], taint)
			}
		}
		// A defined-type conversion aliases slice backing arrays.
		if tv, ok := w.pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return w.tainted(x.Args[0], taint)
		}
	}
	return false
}

// checkCalls walks e for calls that hand a tainted argument to a callee
// that may retain it. Nested function literals are skipped: goStmt
// handles the spawn case, and a deferred or inline literal runs within
// the call's lifetime.
func (w *taintWalker) checkCalls(e ast.Expr, taint taintSet, report bool) {
	if e == nil || !report {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.checkCall(call, taint)
		return true
	})
}

func (w *taintWalker) checkCall(call *ast.CallExpr, taint taintSet) {
	// Builtins and conversions never retain.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	var taintedArgs []int
	for i, arg := range call.Args {
		if w.tainted(arg, taint) {
			taintedArgs = append(taintedArgs, i)
		}
	}
	if len(taintedArgs) == 0 {
		return
	}

	fn := calleeFunc(w.pkg.Info, call)
	if fn == nil {
		// Direct literal calls run inline; other dynamic callees are
		// unverifiable.
		if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			return
		}
		for _, i := range taintedArgs {
			w.ctx.mp.Reportf(call.Args[i].Pos(), "no-retention value %s passed through a dynamic call", types.ExprString(call.Args[i]))
		}
		return
	}
	if fn.Pkg() == nil || !w.moduleLocal(fn.Pkg().Path()) {
		return // stdlib contract: no retention of arguments
	}

	sig, _ := fn.Type().(*types.Signature)
	var contract map[int]bool
	if key := funcKey(fn); w.ctx.markedFuncs[key] != nil {
		contract = w.ctx.markedFuncs[key]
	} else if sig != nil {
		contract = w.ctx.markedIfaces[ifaceSig{name: fn.Name(), sig: sigString(sig)}]
	}
	for _, i := range taintedArgs {
		pi := i
		if sig != nil && sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if contract[pi] {
			continue
		}
		w.ctx.mp.Reportf(call.Args[i].Pos(),
			"no-retention value %s passed to %s, which does not declare %s for parameter %s",
			types.ExprString(call.Args[i]), fn.Name(), noretainPrefix, paramName(sig, pi))
	}
}

func paramName(sig *types.Signature, i int) string {
	if sig != nil && i < sig.Params().Len() {
		if name := sig.Params().At(i).Name(); name != "" {
			return strconv.Quote(name)
		}
	}
	return "#" + strconv.Itoa(i)
}

func (w *taintWalker) moduleLocal(path string) bool {
	m := w.ctx.mp.Module
	return path == m || strings.HasPrefix(path, m+"/")
}
