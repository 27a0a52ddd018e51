package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
	"testing"

	"ams/internal/analysis"
)

// unusedExempt lists the exported declarations that only tests use, and
// the exported fields only tests set, that stay anyway, keyed as the
// checks key them, each with the reason it stays.
var unusedExempt = map[string]string{
	"ams/internal/graph.NewDensityPolicy":          "TestGoldenFigures pins the density policy's schedules",
	"(*ams/internal/oracle.ExternalItem).SetTruth": "TestOnDemandParityWithOracle's only way to give an external item truth, for its recall parity",

	"ams.DQN":               "a member of the Algorithm enumeration; commands select it by name through rl.ParseAlgorithm",
	"ams.DoubleDQN":         "a member of the Algorithm enumeration; commands select it by name through rl.ParseAlgorithm",
	"ams.DeepSARSA":         "a member of the Algorithm enumeration; commands select it by name through rl.ParseAlgorithm",
	"ams.TraceSpan":         "names the element type of DecisionTrace.Spans, a live exported field",
	"ams.TraceSpanLink":     "names the element type of TraceSpan.Links, a live exported field",
	"ams.CriticalPathStage": "names the element type of the result of DecisionTrace.CriticalPath, a live exported method",
	"ams.SceneSpec.Gender":  "the face-conditioned content field that goes with Emotion: the scene's dominant gender",
}

// inScope reports whether the checks below cover a package: the root
// package and every internal package but the test helpers.
func inScope(path string) bool {
	return (path == "ams" || strings.HasPrefix(path, "ams/internal/")) &&
		path != "ams/internal/leaktest" && path != "ams/internal/analysis/analysistest"
}

// TestNoUnusedInternalExports fails on every exported declaration of an
// in-scope package that no non-test code reaches. Liveness flows from
// the packages out of scope (cmd, examples, bench, the test helpers),
// init functions, blank declarations and the exemptions, through every
// use in a live declaration; a method is also live when its receiver
// type is and some interface the tree uses has a method of its name.
// Objects are keyed by name, not identity: a use from another
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
		if (decls[k] == nil && !namesField(decls, k)) || reason == "" {
			t.Errorf("exemption %s must name a declaration or a field and give a reason", k)
		}
	}
}

// namesField reports whether k keys a field of a declared type, as
// "path.Type.Field".
func namesField(decls map[string]types.Object, k string) bool {
	i := strings.LastIndex(k, ".")
	tn, ok := decls[k[:max(i, 0)]].(*types.TypeName)
	if !ok {
		return false
	}
	f, _, _ := types.LookupFieldOrMethod(tn.Type(), false, tn.Pkg(), k[i+1:])
	v, ok := f.(*types.Var)
	return ok && v.IsField()
}

// TestNoUnsetInternalFields fails on every exported field of an exported
// in-scope struct type that no non-test code sets (see unsetFields).
// Unexported fields and types stay out of scope: a mutex or an atomic
// works at its zero value, and what JSON or gob fills by reflection is
// unexported here.
func TestNoUnsetInternalFields(t *testing.T) {
	pkgs := loadTree(t)
	unset := unsetFields(pkgs, inScope)
	for _, k := range slices.Sorted(maps.Keys(unset)) {
		if unusedExempt[k] == "" {
			t.Errorf("%s: %s is never set by non-test code: delete it, or exempt it with a reason",
				pkgs[0].Fset.Position(unset[k]), k)
		}
	}
}

// TestUnsetFieldsFixture pins what unsetFields counts as a write: the
// fixture's fields whose comment starts "unset" are the ones reported.
func TestUnsetFieldsFixture(t *testing.T) {
	pkg, err := analysis.LoadFixture("testdata/unsetfield")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	got := slices.Sorted(maps.Keys(unsetFields([]*analysis.Package{pkg}, func(path string) bool {
		return path == "unsetfield"
	})))
	want := []string{
		"unsetfield.Config.Dead",
		"unsetfield.Config.Fill",
		"unsetfield.Config.Relay",
		"unsetfield.Options.Dead",
		"unsetfield.Options.Relay",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unset fields = %v, want %v", got, want)
	}
}

// unsetFields returns, keyed "path.Type.Field" and mapped to their
// declarations, the exported fields of exported struct types in the
// packages inScope accepts that no code in pkgs writes. A write is a
// keyed composite-literal element, a positional literal (which writes
// every field), an assignment, op-assignment or ++/-- to x.F or through
// x.F.G, x.F[i] or *x.F, and &x.F. A write whose value is a copy of
// another field, F: y.G or x.F = y.G, writes F only if y.G is set: a
// field fed only by copies of a field nothing sets is as unset as that
// field. A write inside a value-receiver method of the field's own type,
// the func (c Config) withDefaults() Config idiom, is not a write: it
// only copies a default into the caller's value, so a field that only
// such a fill writes holds one value for every caller. Fields out of
// scope count as set.
func unsetFields(pkgs []*analysis.Package, inScope func(path string) bool) map[string]token.Pos {
	fields := map[string]token.Pos{} // every field in scope
	set := map[string]bool{}
	copies := map[string][]string{} // field -> the fields copied into it
	for _, pkg := range pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || tn.Parent() != tn.Pkg().Scope() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[pkg.Path+"."+tn.Name()+"."+f.Name()] = f.Pos()
					}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		// selected returns the key of the field e selects, if it selects one.
		selected := func(e ast.Expr) string {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			s := pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return ""
			}
			owner := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				owner = structOf(owner).Field(i).Type()
			}
			return fieldKey(owner, sel.Sel.Name)
		}
		// fill is "path.Type." inside a value-receiver method of Type.
		var fill string
		// write records that key is written with val (nil: not a copy).
		write := func(key string, val ast.Expr) {
			if fill != "" && strings.HasPrefix(key, fill) {
				return
			}
			if src := selected(val); src != "" {
				copies[key] = append(copies[key], src)
			} else {
				set[key] = true
			}
		}
		// writeThrough records a write of lhs and of every field it writes through.
		writeThrough := func(lhs, val ast.Expr) {
			for e := ast.Unparen(lhs); e != nil; val = nil {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if k := selected(x); k != "" {
						write(k, val)
					}
					e = ast.Unparen(x.X)
				case *ast.IndexExpr:
					e = ast.Unparen(x.X)
				case *ast.StarExpr:
					e = ast.Unparen(x.X)
				default:
					e = nil
				}
			}
		}
		visit := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				owner := pkg.Info.TypeOf(n)
				st := structOf(owner)
				if st == nil {
					return true
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						write(fieldKey(owner, kv.Key.(*ast.Ident).Name), kv.Value)
					} else {
						write(fieldKey(owner, st.Field(i).Name()), nil)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var val ast.Expr
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						val = n.Rhs[i]
					}
					writeThrough(lhs, val)
				}
			case *ast.IncDecStmt:
				writeThrough(n.X, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					writeThrough(n.X, nil)
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					writeThrough(n.Key, nil)
					writeThrough(n.Value, nil)
				}
			}
			return true
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fill = ""
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv := pkg.Info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
					if _, ptr := recv.(*types.Pointer); !ptr {
						fill = fieldKey(recv, "")
					}
				}
				ast.Inspect(d, visit)
			}
		}
	}
	isSet := func(k string) bool { _, in := fields[k]; return set[k] || !in }
	for changed := true; changed; {
		changed = false
		for k, srcs := range copies {
			if !set[k] && slices.ContainsFunc(srcs, isSet) {
				set[k], changed = true, true
			}
		}
	}
	unset := map[string]token.Pos{}
	for k, pos := range fields {
		if !set[k] {
			unset[k] = pos
		}
	}
	return unset
}

// structOf returns the struct type t or *t is, or nil.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// fieldKey keys field name of the named struct type owner (or *owner)
// as "path.Type.Field", and an unnamed struct's field as "".
func fieldKey(owner types.Type, name string) string {
	if p, ok := owner.(*types.Pointer); ok {
		owner = p.Elem()
	}
	n, ok := types.Unalias(owner).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + name
}
