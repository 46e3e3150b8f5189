package analysis

// seqlockfence: internal/core's readers are lock-free. A shard's replica
// slots (shardCtl.inst — one live replica in SINGLE mode, two in DUAL)
// may only be touched through the seqlock protocol in seqlock.go —
// pinRead validates the version counter before handing out a replica, and
// the in-place apply and the publish/drain sequence are the only
// writer-side transitions. A raw `sc.inst[...]` anywhere else is a read
// outside a version-validated region: it can observe a replica mid-apply
// and resurrect exactly the torn-read class the seqlock removed. The
// check also bans sync.RWMutex read-side calls (RLock/RUnlock/TryRLock/
// RLocker) in non-test core files: the acceptance contract for the read
// path is ZERO reader-lock acquisitions, so any RLock that sneaks back in
// is a regression even if it happens to be correct.

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// seqlockFile is the one file sanctioned to dereference shardCtl.inst.
const seqlockFile = "seqlock.go"

// SeqlockFence is the seqlockfence analyzer.
var SeqlockFence = &Analyzer{
	Name: "seqlockfence",
	Doc:  "shard replicas reachable only through the seqlock pin protocol; no reader locks in internal/core",
	Scope: func(pkgPath, filename string) bool {
		return strings.HasSuffix(pkgPath, "/internal/core") && !strings.HasSuffix(filename, "_test.go")
	},
	Run: runSeqlockFence,
}

func runSeqlockFence(pass *Pass) {
	for _, f := range pass.Files {
		inSeqlock := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == seqlockFile
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s, ok := pass.Info.Selections[sel]; ok {
				switch obj := s.Obj().(type) {
				case *types.Var:
					if !inSeqlock && obj.Name() == "inst" && recvTypeNamed(s.Recv()) == "shardCtl" {
						pass.Reportf(sel.Sel.Pos(),
							"shardCtl.inst dereferenced outside %s; replicas are only reachable through the seqlock pin/publish protocol", seqlockFile)
					}
				case *types.Func:
					reportReadLock(pass, sel, obj)
				}
			} else if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok {
				// Package-qualified or method-value form resolved via Uses.
				reportReadLock(pass, sel, fn)
			}
			return true
		})
	}
}

// reportReadLock flags read-side sync.RWMutex methods. Matching on the
// method's defining package (sync) catches promoted calls through
// embedded mutexes as well as direct ones, and selecting the method as a
// value (handing mu.RLock to a defer or callback) counts the same as
// calling it.
func reportReadLock(pass *Pass, sel *ast.SelectorExpr, fn *types.Func) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return
	}
	switch fn.Name() {
	case "RLock", "RUnlock", "TryRLock", "RLocker":
	default:
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"sync.RWMutex.%s in internal/core: the read path is lock-free by contract; use the seqlock pin protocol", fn.Name())
}

// recvTypeNamed returns the name of a selection receiver's named type,
// looking through one pointer.
func recvTypeNamed(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
