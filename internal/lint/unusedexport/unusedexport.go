package unusedexport

import (
	"go/ast"
	"go/types"
	"strings"

	"piersearch/internal/lint/analysis"
	"piersearch/internal/lint/lintutil"
	"piersearch/internal/lint/load"
)

// Name identifies the check in diagnostics and allow directives.
const Name = "unusedexport"

// Doc is the one-line summary piervet lists.
const Doc = "exported identifiers in internal/ that no non-test code in the module references"

// Check reports every exported func, method, type, var and const
// declared in a targets package under internal/ that no package of
// module references. Both lists hold non-test files only, as the
// loader returns them; module should be the whole module whatever the
// targets are, so a narrow run sees every use. Targets and module must
// come from one Loader, so that their types are identical.
func Check(targets, module []*load.Package) []analysis.Diagnostic {
	used := uses(module)
	ifaces := interfaces(module)
	var diags []analysis.Diagnostic
	for _, pkg := range targets {
		if !candidate(pkg) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, id := range exportedNames(decl) {
					obj := pkg.TypesInfo.Defs[id]
					if obj == nil || used[keyOf(obj)] || satisfies(obj, ifaces) {
						continue
					}
					diags = append(diags, analysis.Diagnostic{
						Pos:     id.Pos(),
						Message: "exported " + describe(obj) + " has no non-test use",
					})
				}
			}
		}
	}
	return diags
}

// candidate reports whether pkg's exports are checked: a non-main
// package under internal/ whose name does not end in "test" (those
// exist only to serve other packages' tests).
func candidate(pkg *load.Package) bool {
	if pkg.Pkg == nil || pkg.TypesInfo == nil || !lintutil.PkgPathContains(pkg.ImportPath, "internal") {
		return false
	}
	name := pkg.Pkg.Name()
	return name != "main" && !strings.HasSuffix(name, "test")
}

// exportedNames returns the exported identifiers a top-level
// declaration introduces: a func or method name, type names, and var
// and const names.
func exportedNames(decl ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		ids = append(ids, d.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
	}
	out := ids[:0]
	for _, id := range ids {
		if id.IsExported() {
			out = append(out, id)
		}
	}
	return out
}

// A key names a package-level object or a method independently of the
// *types.Object that denotes it.
type key struct {
	pkg, recv, name string
}

func keyOf(obj types.Object) key {
	k := key{name: obj.Name()}
	if obj.Pkg() != nil {
		k.pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			k.recv = recvName(recv.Type())
		}
	}
	return k
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// uses collects every object the module's non-test code refers to. A
// method's receiver type and a declaration's references to itself do
// not count: neither makes the declaration reachable.
func uses(module []*load.Package) map[key]bool {
	used := map[key]bool{}
	for _, pkg := range module {
		if pkg.TypesInfo == nil {
			continue
		}
		skip := map[*ast.Ident]bool{}
		self := map[*ast.Ident]types.Object{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var name *ast.Ident
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil && len(d.Recv.List) > 0 {
						if id := baseIdent(d.Recv.List[0].Type); id != nil {
							skip[id] = true
						}
					}
					name = d.Name
				case *ast.TypeSpec:
					name = d.Name
				default:
					return true
				}
				if obj := pkg.TypesInfo.Defs[name]; obj != nil {
					ast.Inspect(n, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							self[id] = obj
						}
						return true
					})
				}
				return false
			})
		}
		for id, obj := range pkg.TypesInfo.Uses {
			if obj.Pkg() == nil || skip[id] || self[id] == obj {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[keyOf(obj)] = true
		}
	}
	return used
}

// baseIdent returns the type name of a receiver expression: T in T,
// *T, T[P] and *T[P].
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// interfaces indexes, by method name, every non-generic named
// interface declared in the module or in a package it imports, and the
// predeclared error.
func interfaces(module []*load.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			add(tn.Type())
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range module {
		walk(pkg.Pkg)
	}
	return byName
}

// satisfies reports whether obj is a method whose receiver type
// implements some indexed interface that has a method of its name:
// such a method is called through the interface, which no use records.
// A generic receiver is never exempt: Implements is undefined on an
// uninstantiated type.
func satisfies(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func describe(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if r := o.Type().(*types.Signature).Recv(); r != nil {
			return "method " + recvName(r.Type()) + "." + o.Name()
		}
		return "func " + o.Name()
	case *types.TypeName:
		return "type " + o.Name()
	case *types.Const:
		return "const " + o.Name()
	default:
		return "var " + obj.Name()
	}
}
