package analysis

// Analyzer framework: each check is a plain function over a type-checked
// package, reporting diagnostics with a stable check ID. The driver
// (driver.go) loads every package in the module, applies each analyzer's
// scope, and filters findings through //gtlint:ignore suppressions.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pass carries one type-checked package into an analyzer run.
type Pass struct {
	Path string
	// Module is the import path of the module being analyzed; checks use
	// it to recognize module-local types.
	Module string
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one project-invariant check.
type Analyzer struct {
	// Name is the stable check ID used in reports and suppressions.
	Name string
	// Doc is the one-line invariant statement.
	Doc string
	// Scope reports whether the check applies to a file of a package; nil
	// means every file of every package. The driver consults it; direct
	// Run calls (the golden tests) bypass it.
	Scope func(pkgPath, filename string) bool
	// Run executes the check over the pass's scoped files.
	Run func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Check    string
	Position token.Position
	Message  string
	// Suppressed marks a finding annotated away by a //gtlint:ignore
	// comment; SuppressReason carries the annotation's justification.
	Suppressed     bool
	SuppressReason string
}

// MarshalJSON flattens the position so the -json report schema stays
// stable and lower-cased regardless of go/token's struct layout.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Check          string `json:"check"`
		File           string `json:"file"`
		Line           int    `json:"line"`
		Column         int    `json:"column"`
		Message        string `json:"message"`
		Suppressed     bool   `json:"suppressed,omitempty"`
		SuppressReason string `json:"suppress_reason,omitempty"`
	}{d.Check, d.Position.Filename, d.Position.Line, d.Position.Column,
		d.Message, d.Suppressed, d.SuppressReason})
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Check, d.Message)
}

// Analyzers returns the per-package check suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockHold,
		FailpointReg,
		ErrWrapDiscipline,
		ClockBan,
		SeqlockFence,
		SyncErr,
		ContainerIface,
		GoroLeak,
	}
}

// ModulePass carries every loaded package into a whole-module analyzer:
// checks that need a call graph, cross-package contracts, or a spec file
// at the module root run here instead of per package.
type ModulePass struct {
	// Module is the module's import path; Dir its root directory (where
	// spec files like lockorder.spec live).
	Module string
	Dir    string
	// Fset is the load-wide FileSet shared by every package.
	Fset *token.FileSet
	// Packages holds each analysis unit (test-inclusive primary packages
	// and external _test packages) in load order.
	Packages []*Package

	analyzer *ModuleAnalyzer
	diags    *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a diagnostic at an explicit file position — for
// findings anchored outside Go sources (e.g. a stale lockorder.spec line).
func (p *ModulePass) ReportAt(position token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.analyzer.Name,
		Position: position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModuleAnalyzer is one whole-module check.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// ModuleAnalyzers returns the whole-module check suite.
func ModuleAnalyzers() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		LockOrder,
		BufRetain,
	}
}

// knownChecks is the set of check IDs a //gtlint:ignore may name.
func knownChecks() map[string]bool {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range ModuleAnalyzers() {
		known[a.Name] = true
	}
	return known
}

// suppression is one parsed //gtlint:ignore annotation.
type suppression struct {
	file   string
	line   int // findings on this line or the next are covered
	checks map[string]bool
	reason string
	used   bool
}

// ignorePrefix is the suppression comment marker:
//
//	//gtlint:ignore <check>[,<check>...] <reason>
//
// The annotation covers findings of the named checks on its own line and
// on the line directly below it (so it can sit above the offending
// statement or trail it on the same line). The reason is mandatory: an
// unexplained suppression is itself reported as a finding.
const ignorePrefix = "//gtlint:ignore"

// collectSuppressions parses every //gtlint:ignore annotation in the
// files, reporting malformed ones (missing check or reason) through report.
func collectSuppressions(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) []*suppression {
	var out []*suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //gtlint:ignoreXYZ — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(Diagnostic{
						Check:    "suppression",
						Position: pos,
						Message:  "malformed //gtlint:ignore: want \"//gtlint:ignore <check>[,<check>...] <reason>\"",
					})
					continue
				}
				checks := make(map[string]bool)
				known := knownChecks()
				bad := false
				for _, id := range strings.Split(fields[0], ",") {
					if !known[id] {
						report(Diagnostic{
							Check:    "suppression",
							Position: pos,
							Message:  fmt.Sprintf("//gtlint:ignore names unknown check %q", id),
						})
						bad = true
						break
					}
					checks[id] = true
				}
				if bad {
					continue
				}
				out = append(out, &suppression{
					file:   pos.Filename,
					line:   pos.Line,
					checks: checks,
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return out
}

// applySuppressions marks diagnostics covered by an annotation and appends
// a finding for annotations that cover nothing (stale suppressions rot;
// they must go).
func applySuppressions(diags []Diagnostic, sups []*suppression) []Diagnostic {
	for i := range diags {
		d := &diags[i]
		for _, s := range sups {
			if !s.checks[d.Check] || s.file != d.Position.Filename {
				continue
			}
			if d.Position.Line == s.line || d.Position.Line == s.line+1 {
				d.Suppressed = true
				d.SuppressReason = s.reason
				s.used = true
				break
			}
		}
	}
	for _, s := range sups {
		if !s.used {
			var ids []string
			for id := range s.checks {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			diags = append(diags, Diagnostic{
				Check:    "suppression",
				Position: token.Position{Filename: s.file, Line: s.line, Column: 1},
				Message:  fmt.Sprintf("stale //gtlint:ignore (%s): no finding on this or the next line", strings.Join(ids, ",")),
			})
		}
	}
	return diags
}
