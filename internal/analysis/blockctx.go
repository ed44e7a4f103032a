package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// blockctx requires every exported entry point of the runtime packages
// (ami, serve, obs) that can block indefinitely — channel ops, network IO,
// sleeps, waits, directly or through callees — to give its caller a way to
// bound the wait. Bounded means any of:
//
//   - a context.Context parameter,
//   - a time.Duration parameter named like a timeout or deadline
//     (ami.DialBatch's explicit `timeout` argument),
//   - an exported sibling named <Name>Context on the same receiver — the
//     convenience form delegates to the bounded one
//     (a Push that delegates to PushContext),
//   - a timeout/deadline/drain knob of type time.Duration on the receiver
//     struct or one of its struct-typed config fields
//     (ShardedHeadEnd.cfg.DrainTimeout), set at construction,
//   - the method is named Close: the io.Closer contract is itself the
//     bounded-shutdown entry, and every Close here drains under a
//     configured deadline.
//
// File and stream IO are deliberately outside the trigger set — they are
// bounded by a device the process owns, and a context could not interrupt
// them anyway.
func newBlockctx() *Analyzer {
	return &Analyzer{
		Name: "blockctx",
		Doc:  "exported blocking entry points in ami/serve/obs must accept a context or deadline",
		Applies: func(mod *Module, pkg *Package) bool {
			switch strings.TrimPrefix(pkg.Path, mod.ModPath+"/") {
			case "internal/ami", "internal/serve", "internal/obs":
				return true
			}
			return testdataScoped(pkg, "blockctx")
		},
		Run: runBlockctx,
	}
}

func runBlockctx(mod *Module, pkg *Package, report func(pos token.Pos, msg string)) {
	cs := mod.Summaries()
	siblings := exportedDeclIndex(pkg)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() || fd.Name.Name == "Close" {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			recvName, recvType, exportedRecv := receiverInfo(fn)
			if fd.Recv != nil && !exportedRecv {
				continue // methods on unexported types are not entry points
			}
			sum := cs.Lookup(fn)
			if sum == nil || !sum.CanBlockIndefinitely() {
				continue
			}
			if hasContextParam(fn) || hasDeadlineParam(fn) ||
				siblings[recvName][fd.Name.Name+"Context"] ||
				hasDeadlineKnob(recvType, 2) {
				continue
			}
			k, _ := sum.firstKind(indefiniteBlocking)
			report(fd.Name.Pos(), fmt.Sprintf(
				"exported %s can block indefinitely (%s) but accepts no context.Context or deadline option; add a %sContext variant, a timeout parameter, or a deadline knob on the receiver",
				entryName(recvName, fd.Name.Name), sum.Explain(k), fd.Name.Name))
		}
	}
}

// entryName renders "(*Server).Flush" or "Dial" for diagnostics.
func entryName(recvName, fnName string) string {
	if recvName == "" {
		return fnName
	}
	return fmt.Sprintf("(%s).%s", recvName, fnName)
}

// exportedDeclIndex maps receiver type name ("" for package functions) to
// the set of exported function names declared on it — the sibling lookup.
func exportedDeclIndex(pkg *Package) map[string]map[string]bool {
	idx := make(map[string]map[string]bool)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			recvName, _, _ := receiverInfo(fn)
			if idx[recvName] == nil {
				idx[recvName] = make(map[string]bool)
			}
			idx[recvName][fd.Name.Name] = true
		}
	}
	return idx
}

// receiverInfo resolves a method's receiver: its named-type name, the
// pointer-stripped type, and whether that type is exported. Package
// functions return ("", nil, true).
func receiverInfo(fn *types.Func) (name string, t types.Type, exported bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil, true
	}
	t = sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", t, false
	}
	return named.Obj().Name(), t, named.Obj().Exported()
}

// hasContextParam reports a context.Context anywhere in the signature.
func hasContextParam(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if types.TypeString(params.At(i).Type(), nil) == "context.Context" {
			return true
		}
	}
	return false
}

// hasDeadlineParam reports a time.Duration parameter whose name marks it
// as a bound on the call.
func hasDeadlineParam(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if types.TypeString(p.Type(), nil) == "time.Duration" && isDeadlineName(p.Name()) {
			return true
		}
	}
	return false
}

// hasDeadlineKnob reports a timeout-named time.Duration field on the
// receiver struct, looking through struct-typed config fields up to depth
// levels (HeadEndConfig sits one level down from ShardedHeadEnd).
func hasDeadlineKnob(t types.Type, depth int) bool {
	if t == nil || depth < 0 {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if types.TypeString(f.Type(), nil) == "time.Duration" && isDeadlineName(f.Name()) {
			return true
		}
		if hasDeadlineKnob(f.Type(), depth-1) {
			return true
		}
	}
	return false
}

// isDeadlineName matches identifiers that promise a bound: timeout,
// deadline, or drain in any casing.
func isDeadlineName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "timeout") || strings.Contains(l, "deadline") ||
		strings.Contains(l, "drain")
}
