package analysis_test

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
	"strings"
	"testing"

	"ams/internal/analysis"
)

// unusedExempt lists the exported internal declarations that only tests
// use and that stay anyway, keyed as the check keys them, each with the
// reason it stays.
var unusedExempt = map[string]string{
	"ams/internal/graph.NewDensityPolicy":          "TestGoldenFigures pins the density policy's schedules",
	"(*ams/internal/oracle.ExternalItem).SetTruth": "TestOnDemandParityWithOracle's only way to give an external item truth, for its recall parity",
}

// TestNoUnusedInternalExports fails on every exported declaration of an
// internal package that no non-test code reaches. Liveness flows from
// the packages outside internal/ (root, cmd, examples, bench), the test
// helpers, init functions, blank declarations and the exemptions,
// through every use in a live declaration; a method is also live when
// its receiver type is and some interface the tree uses has a method of
// its name. Objects are keyed by name, not identity: a use from another
// package resolves to the export data's copy of the object.
func TestNoUnusedInternalExports(t *testing.T) {
	pkgs := loadTree(t)
	key := func(obj types.Object) string {
		if fn, ok := obj.(*types.Func); ok {
			return fn.Origin().FullName()
		}
		if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return "" // a local, a field or a universe object
		}
		return obj.Pkg().Path() + "." + obj.Name()
	}
	inScope := func(path string) bool {
		return strings.HasPrefix(path, "ams/internal/") &&
			path != "ams/internal/leaktest" && path != "ams/internal/analysis/analysistest"
	}
	ifaceNames := map[string]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	decls := map[string]types.Object{} // every package-level declaration
	uses := map[string][]string{}      // declaration -> what its source uses
	methods := map[string][]string{}   // type -> its methods
	var roots []string
	declare := func(pkg *analysis.Package, n ast.Node, idents ...*ast.Ident) {
		var used []string
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] != nil {
				obj := pkg.Info.Uses[id]
				used = append(used, key(obj))
				if sig, ok := obj.Type().(*types.Signature); ok {
					for i := 0; i < sig.Params().Len(); i++ {
						addIface(sig.Params().At(i).Type()) // e.g. heap.Push's heap.Interface
					}
				}
			}
			return true
		})
		for _, id := range idents {
			if id.Name == "_" || id.Name == "init" {
				roots = append(roots, used...)
				continue
			}
			obj := pkg.Info.Defs[id]
			k := key(obj)
			decls[k], uses[k] = obj, used
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				recv := sig.Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				tk := key(recv.(*types.Named).Origin().Obj())
				methods[tk] = append(methods[tk], k)
			}
			if !inScope(pkg.Path) || unusedExempt[k] != "" {
				roots = append(roots, k)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					declare(pkg, n, n.Name)
				case *ast.TypeSpec:
					declare(pkg, n, n.Name)
				case *ast.ValueSpec:
					declare(pkg, n, n.Names...)
				default:
					return true
				}
				return false // a package-level declaration: its body is its own
			})
		}
	}
	live := map[string]bool{}
	for len(roots) > 0 {
		k := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if live[k] || decls[k] == nil {
			continue
		}
		live[k] = true
		roots = append(roots, uses[k]...)
		for _, m := range methods[k] {
			if ifaceNames[decls[m].Name()] {
				roots = append(roots, m)
			}
		}
	}
	for _, k := range slices.Sorted(maps.Keys(decls)) {
		if obj := decls[k]; !live[k] && obj.Exported() && inScope(obj.Pkg().Path()) {
			t.Errorf("%s: %s is exported but no non-test code reaches it: delete it, or exempt it with a reason",
				pkgs[0].Fset.Position(obj.Pos()), k)
		}
	}
	for k, reason := range unusedExempt {
		if decls[k] == nil || reason == "" {
			t.Errorf("exemption %s must name a declaration and give a reason", k)
		}
	}
}
