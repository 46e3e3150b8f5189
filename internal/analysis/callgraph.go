package analysis

// Function identity and call resolution across the module. The loader
// type-checks each package twice (once as an import dependency without
// test files, once as the test-inclusive analysis unit), so *types.Func
// identity does NOT hold across packages — two views of the same
// function are distinct objects. Keys of the form
// "pkgPath.Recv.Name" / "pkgPath.Name" are stable across both views and
// are the only cross-package currency used by module analyzers.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// funcKey renders the cross-universe-stable key of a function object.
func funcKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	if recv := recvNamed(fn); recv != "" {
		return pkg.Path() + "." + recv + "." + fn.Name()
	}
	return pkg.Path() + "." + fn.Name()
}

// declaredFuncs indexes the packages' function declarations by key. Test
// files (_test.go) are excluded: the concurrency invariants the module
// analyzers enforce are production contracts.
func declaredFuncs(pkgs []*Package) map[string]*FuncNode {
	funcs := make(map[string]*FuncNode)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if isTestFile(pkg, f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if key := funcKey(fn); key != "" {
					funcs[key] = &FuncNode{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return funcs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// calleeFunc resolves a call expression to its *types.Func when the
// callee is statically known (plain call or method call; not a func
// value or interface dispatch on an unknown concrete type).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: time.Sleep, os.Remove, ...
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvNamed returns the name of a method's receiver type, or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(pkg *Package, f *ast.File) bool {
	return strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
}
