package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deadapi keeps unused exported API out of internal/: every exported
// package-level func, method, type, var and const declared there must be
// referred to by some non-test file of the loaded module (cmd/, examples/
// and the nested perfbench module included) outside its own declaration.
// Code only tests call belongs in the test files; code nothing calls is
// deleted.
//
// Two kinds of method are reached without a reference naming them and are
// exempt: methods that let their type satisfy an interface the module's
// code type-checks against (an interface declared in the module, or one
// that appears in the type of an expression or object the module uses,
// such as slog.Handler or types.Importer), and the standard-library
// methods found by type assertion in deadapiAsserted.
func newDeadAPI() *Analyzer {
	var decls []*apiDecl
	byObj := make(map[types.Object]*apiDecl)
	// recvs maps a named type to the receiver lists of its methods: naming
	// a type as a receiver declares a method, it does not use the type.
	recvs := make(map[*types.TypeName][]span)

	add := func(pkg *Package, id *ast.Ident, kind string, decl ast.Node) {
		obj := pkg.Info.Defs[id]
		if obj == nil || !id.IsExported() {
			return
		}
		d := &apiDecl{obj: obj, kind: kind, pkg: pkg.Types.Name(), spans: []span{{decl.Pos(), decl.End()}}}
		decls = append(decls, d)
		byObj[obj] = d
	}

	a := &Analyzer{
		Name: "deadapi",
		Doc:  "exported internal/ API has a non-test user outside its own declaration",
	}
	a.Applies = func(mod *Module, pkg *Package) bool {
		return strings.HasPrefix(pkg.Path, mod.ModPath+"/internal/")
	}
	a.Run = func(_ *Module, pkg *Package, _ func(token.Pos, string)) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					kind := "func"
					if decl.Recv != nil {
						kind = "method"
						if tn := recvTypeName(pkg.Info, decl.Recv); tn != nil {
							recvs[tn] = append(recvs[tn], span{decl.Recv.Pos(), decl.Recv.End()})
						}
					}
					add(pkg, decl.Name, kind, decl)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(pkg, spec.Name, "type", spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								add(pkg, name, decl.Tok.String(), spec)
							}
						}
					}
				}
			}
		}
	}
	a.Finish = func(mod *Module, report func(token.Pos, string)) {
		for tn, s := range recvs {
			if d := byObj[tn]; d != nil {
				d.spans = append(d.spans, s...)
			}
		}
		used := make(map[*apiDecl]bool)
		for _, pkg := range mod.Pkgs {
			for id, obj := range pkg.Info.Uses {
				if d := byObj[originOf(obj)]; d != nil && !d.within(id.Pos()) {
					used[d] = true
				}
			}
		}
		var ifaces []*types.Interface
		for _, d := range decls {
			if used[d] {
				continue
			}
			if fn, ok := d.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				if deadapiAsserted[fn.Name()] {
					continue
				}
				if ifaces == nil {
					ifaces = moduleInterfaces(mod)
				}
				if satisfiesInterface(fn, ifaces) {
					continue
				}
			}
			report(d.obj.Pos(), fmt.Sprintf(
				"exported %s %s has no user outside its declaration in non-test code: delete it, or move it into the test that uses it",
				d.kind, d.name()))
		}
	}
	return a
}

// deadapiAsserted lists the standard-library methods reached by type
// assertion (fmt, errors, encoding/json, encoding) rather than by name.
var deadapiAsserted = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// span is a half-open source range [pos, end).
type span struct{ pos, end token.Pos }

// apiDecl is one exported declaration under deadapi's watch.
type apiDecl struct {
	obj   types.Object
	kind  string // func, method, type, var, const
	pkg   string // package name, for messages
	spans []span // its own declaration, plus its methods' receivers for a type
}

func (d *apiDecl) within(pos token.Pos) bool {
	for _, s := range d.spans {
		if s.pos <= pos && pos < s.end {
			return true
		}
	}
	return false
}

func (d *apiDecl) name() string {
	if fn, ok := d.obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := types.TypeString(recv.Type(), func(*types.Package) string { return "" })
			if strings.HasPrefix(t, "*") {
				t = "(" + t + ")"
			}
			return d.pkg + "." + t + "." + fn.Name()
		}
	}
	return d.pkg + "." + d.obj.Name()
}

// originOf maps a use of an instantiated generic func, method or field to
// its declaration.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvTypeName resolves a method's receiver list to its named type.
func recvTypeName(info *types.Info, recv *ast.FieldList) *types.TypeName {
	if len(recv.List) == 0 {
		return nil
	}
	t := info.TypeOf(recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// moduleInterfaces gathers the interfaces the module's code type-checks
// against: those it declares, and those reachable from the type of any
// object it defines or uses and of any expression it contains (through
// pointers, containers and function signatures, so a call's parameter
// types count).
func moduleInterfaces(mod *Module) []*types.Interface {
	seen := make(map[types.Type]bool)
	var out []*types.Interface
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				out = append(out, it)
			}
		case *types.Interface:
			if t.NumMethods() > 0 && t.IsMethodSet() {
				out = append(out, t)
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				visit(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				visit(t.Results().At(i).Type())
			}
		}
	}
	for _, pkg := range mod.Pkgs {
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				visit(obj.Type())
			}
		}
		for _, obj := range pkg.Info.Uses {
			visit(obj.Type())
		}
		for _, tv := range pkg.Info.Types {
			visit(tv.Type)
		}
	}
	return out
}

// satisfiesInterface reports whether method fn is one of the methods by
// which its receiver type implements some interface in ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
