package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Check names the analyzer ("determinism", "metricnames", ...).
	Check string
	// Pos is the exact source position.
	Pos token.Position
	// Message states the violated invariant.
	Message string
	// Suppressed is set by the driver when a //lint:ignore directive
	// covers the finding; Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Analyzer is one domain check. Run inspects the whole module (several
// invariants are cross-package) and reports findings through report; the
// driver owns suppression, sorting, and exit codes.
type Analyzer struct {
	// Name is the check identifier used in output and ignore directives.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Applies filters the packages the analyzer inspects, by import path.
	// Fixture packages under this package's testdata/src/<name>/ are
	// always in scope so golden tests exercise the same code path.
	Applies func(mod *Module, pkg *Package) bool
	// Run reports findings for one in-scope package. Cross-package state
	// lives in the analyzer's closure via newState.
	Run func(mod *Module, pkg *Package, report func(pos token.Pos, msg string))
	// Finish, if non-nil, runs after every package for module-wide
	// verdicts (e.g. metric-name uniqueness).
	Finish func(mod *Module, report func(pos token.Pos, msg string))
}

// Analyzers returns the full suite in stable order. Each call returns
// fresh analyzer instances: analyzers carry cross-package state in their
// closures, so instances must not be shared between runs.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		newDeterminism(),
		newMetricNames(),
		newFloatCmp(),
		newGoroutines(),
		newWrapCheck(),
		newLockhold(),
		newChanbound(),
		newBlockctx(),
		newDeadAPI(),
	}
}

// Summary is one analyzer's per-run accounting, printed as a single line
// by the driver so `make verify` output stays scannable.
type Summary struct {
	Check      string
	Packages   int
	Findings   int // unsuppressed
	Suppressed int
}

func (s Summary) String() string {
	return fmt.Sprintf("%-12s %2d pkgs  %2d findings  %2d suppressed",
		s.Check, s.Packages, s.Findings, s.Suppressed)
}

// Result is a full suite run over a module.
type Result struct {
	// Findings holds every diagnostic, suppressed ones included, sorted
	// by position.
	Findings []Finding
	// Summaries holds one entry per analyzer in suite order.
	Summaries []Summary
	// Directives lists every suppression directive found in the module's
	// loaded files (the -suppressions audit).
	Directives []Directive
	// BadDirectives are malformed //lint: comments (missing check or
	// reason); they are findings under the "lint" pseudo-check.
	BadDirectives []Finding
}

// Unsuppressed counts findings not covered by a directive, including
// malformed directives themselves.
func (r *Result) Unsuppressed() int {
	n := len(r.BadDirectives)
	for _, f := range r.Findings {
		if !f.Suppressed {
			n++
		}
	}
	return n
}

// Run executes the given analyzers over the module, applies suppression
// directives, and aggregates summaries. Packages with type errors are not
// analyzed — the driver surfaces the type errors instead, under the
// "typecheck" pseudo-check.
func Run(mod *Module, analyzers []*Analyzer) *Result {
	res := &Result{}
	idx := newSuppressionIndex(mod)
	res.Directives = idx.directives
	res.BadDirectives = idx.malformed

	for _, a := range analyzers {
		sum := Summary{Check: a.Name}
		var found []Finding
		report := func(pos token.Pos, msg string) {
			found = append(found, Finding{Check: a.Name, Pos: mod.Fset.Position(pos), Message: msg})
		}
		for _, pkg := range mod.Pkgs {
			if len(pkg.TypeErrors) > 0 {
				continue
			}
			if a.Applies != nil && !a.Applies(mod, pkg) {
				continue
			}
			sum.Packages++
			a.Run(mod, pkg, report)
		}
		if a.Finish != nil {
			a.Finish(mod, report)
		}
		for i := range found {
			if reason, ok := idx.match(found[i].Pos, a.Name); ok {
				found[i].Suppressed = true
				found[i].Reason = reason
				sum.Suppressed++
			} else {
				sum.Findings++
			}
		}
		res.Findings = append(res.Findings, found...)
		res.Summaries = append(res.Summaries, sum)
	}

	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return res
}

// TypeErrorFindings renders every package's type errors as findings so the
// driver can print them uniformly.
func TypeErrorFindings(mod *Module) []Finding {
	var out []Finding
	for _, pkg := range mod.Pkgs {
		for _, err := range pkg.TypeErrors {
			f := Finding{Check: "typecheck", Message: err.Error()}
			if terr, ok := err.(types.Error); ok {
				f.Pos = terr.Fset.Position(terr.Pos)
				f.Message = terr.Msg
			}
			out = append(out, f)
		}
	}
	return out
}

// --- shared AST/type helpers -----------------------------------------------

// calleeOf resolves the called object of a call expression, for both
// pkg.Func(...) and recv.Method(...) forms. Returns nil for indirect calls
// (function values, conversions).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is the package-scope function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// isMethodOn reports whether fn is a method named name whose receiver's
// (pointer-stripped) named type is pkgPath.typeName.
func isMethodOn(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isErrorType reports whether t is the error interface or implements it
// (directly or through a pointer receiver).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}

// testdataScoped reports whether pkg is a fixture for the named analyzer:
// .../internal/analysis/testdata/src/<name>/... Golden tests load those
// packages explicitly; the module walk never sees them.
func testdataScoped(pkg *Package, name string) bool {
	return strings.Contains(pkg.Path+"/", "/testdata/src/"+name+"/")
}
