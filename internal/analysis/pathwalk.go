package analysis

import (
	"go/ast"
	"go/types"
)

// pathResult is what the statements after a site do to the obligation
// the site opened, which must be discharged on every control-flow path.
type pathResult int

const (
	pathNeutral  pathResult = iota // falls through, not discharged yet
	pathReleased                   // a discharge (or divergence) covers the path
	pathLeaky                      // a path returns with the obligation open
)

// pathWalk is the path sweep of an obligation-pairing analyzer
// (spanpair): the outcome of the statements after a site for one
// obligation, such as an open span. leaf says what an ExprStmt,
// AssignStmt, DeferStmt, GoStmt or ReturnStmt does to the obligation;
// compound statements join their branches. Leaks dominate; otherwise a
// discharge anywhere on a branch is accepted (optimistic join — a close
// guarded by the same flag as its open pairs with it, though the
// analyzer cannot correlate the two guards).
type pathWalk struct {
	leaf func(ast.Stmt) pathResult
}

// after walks the statements lexically after `from` in each enclosing
// block, innermost first, mirroring fall-through control flow.
func (w pathWalk) after(stack []ast.Node, from ast.Node) pathResult {
	cur := from
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		if idx := stmtIndex(block.List, cur); idx >= 0 {
			if r := w.stmts(block.List[idx+1:]); r != pathNeutral {
				return r
			}
		}
		cur = block
	}
	return pathNeutral
}

// stmts is the outcome of a statement sequence: its first statement
// that is not neutral decides.
func (w pathWalk) stmts(list []ast.Stmt) pathResult {
	for _, s := range list {
		if r := w.stmt(s); r != pathNeutral {
			return r
		}
	}
	return pathNeutral
}

func (w pathWalk) stmt(stmt ast.Stmt) pathResult {
	switch s := stmt.(type) {
	case *ast.ExprStmt, *ast.AssignStmt, *ast.DeferStmt, *ast.GoStmt, *ast.ReturnStmt:
		return w.leaf(s)
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.IfStmt:
		t, e := w.stmts(s.Body.List), pathNeutral
		if s.Else != nil {
			e = w.stmt(s.Else)
		}
		if t == pathLeaky || e == pathLeaky {
			return pathLeaky
		}
		if t == pathReleased || e == pathReleased {
			return pathReleased
		}
	case *ast.ForStmt:
		return w.stmts(s.Body.List)
	case *ast.RangeStmt:
		return w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		return w.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body)
	case *ast.SelectStmt:
		return w.clauses(s.Body)
	}
	return pathNeutral
}

// clauses is the outcome of a switch or select body: its first clause
// that is not neutral decides.
func (w pathWalk) clauses(body *ast.BlockStmt) pathResult {
	for _, cc := range body.List {
		var list []ast.Stmt
		switch c := cc.(type) {
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			list = c.Body
		}
		if r := w.stmts(list); r != pathNeutral {
			return r
		}
	}
	return pathNeutral
}

func parentOf(stack []ast.Node, i int) ast.Node {
	for j := i - 1; j >= 0; j-- {
		switch stack[j].(type) {
		case *ast.ParenExpr:
			continue
		default:
			return stack[j]
		}
	}
	return nil
}

func assignTarget(asg *ast.AssignStmt, call *ast.CallExpr) *ast.Ident {
	for i, rhs := range asg.Rhs {
		if ast.Unparen(rhs) == call && i < len(asg.Lhs) {
			id, _ := asg.Lhs[i].(*ast.Ident)
			return id
		}
	}
	return nil
}

func stmtIndex(list []ast.Stmt, target ast.Node) int {
	for i, s := range list {
		if s == target || containsNode(s, target) {
			return i
		}
	}
	return -1
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
