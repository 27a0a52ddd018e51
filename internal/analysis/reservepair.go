package analysis

import (
	"go/ast"
	"go/types"
)

// ReservePair enforces the memory-accountant protocol of Algorithm 2.
var ReservePair = &Analyzer{
	Name: "reservepair",
	Doc: "Every call to a memory-accountant Reserve (a method named " +
		"Reserve/reserve returning a single bool) must have its result " +
		"checked — a discarded boolean silently turns budget-refusal into " +
		"an unpaid execution, the PR-6 bug — and a successful reserve must " +
		"reach a Release on its success path: a reservation leaked on an " +
		"early return shrinks the server's memory budget forever. " +
		"Functions named mustReserve/MustReserve are sanctioned " +
		"panic-on-refusal wrappers (their caller owns the release), and a " +
		"function that returns the Reserve result forwards the whole " +
		"obligation to its caller. A Grant/grant call with a single bool " +
		"result (the accountant's ordered line) must be checked the same " +
		"way; its release happens later, in the completion callback the " +
		"grant arms, so it is pinned by tests, not by this analyzer.",
	Run: runReservePair,
}

func runReservePair(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncReserves(pass, fd.Name.Name, fd.Body)
		}
	}
	return nil
}

// checkFuncReserves analyzes one function body. Function literals nested
// inside are analyzed as part of the enclosing function: a closure that
// reserves participates in the same pairing discipline.
func checkFuncReserves(pass *Pass, funcName string, body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok {
			if claim, grant := claimCall(pass.Info, call); claim {
				checkReserveSite(pass, funcName, call, append([]ast.Node(nil), stack...), grant)
			}
		}
		return true
	})
}

// claimCall reports whether call invokes a method named Reserve/reserve
// or Grant/grant with a single bool result — the accountant protocol's
// shape, whether on the concrete accountant or the batcher's Memory
// interface — and whether it is a grant.
func claimCall(info *types.Info, call *ast.CallExpr) (claim, grant bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false, false
	}
	switch fn.Name() {
	case "Reserve", "reserve":
	case "Grant", "grant":
		grant = true
	default:
		return false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 {
		return false, false
	}
	basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool, grant
}

func isReleaseCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || (fn.Name() != "Release" && fn.Name() != "release") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// checkReserveSite classifies how one Reserve or Grant call's result is
// consumed and, for checked reserves, verifies the success path reaches
// a Release (a grant's release is in its callback, out of reach here).
// stack is the ancestor chain from the function body down to the call.
func checkReserveSite(pass *Pass, funcName string, call *ast.CallExpr, stack []ast.Node, grant bool) {
	paired := func(guard *ast.IfStmt, positive bool) {
		if !grant {
			checkSuccessPath(pass, funcName, call, stack, guard, positive)
		}
	}
	parent := parentOf(stack, len(stack)-1)
	switch p := parent.(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result of %s is discarded: a refused reservation must not execute", calleeName(pass.Info, call))
		return
	case *ast.GoStmt, *ast.DeferStmt:
		pass.Reportf(call.Pos(), "result of %s is discarded by go/defer", calleeName(pass.Info, call))
		return
	case *ast.ReturnStmt:
		return // forwarding wrapper: the caller inherits the obligation
	case *ast.AssignStmt:
		lhs := assignTarget(p, call)
		if lhs == nil {
			break
		}
		if lhs.Name == "_" {
			pass.Reportf(call.Pos(), "result of %s is assigned to _: check it", calleeName(pass.Info, call))
			return
		}
		obj := pass.Info.Defs[lhs]
		if obj == nil {
			obj = pass.Info.Uses[lhs]
		}
		guard := findGuardIf(pass, stack, p, obj)
		if guard == nil {
			pass.Reportf(call.Pos(), "result of %s is stored in %s but never checked", calleeName(pass.Info, call), lhs.Name)
			return
		}
		paired(guard.ifStmt, guard.positive)
		return
	}
	// The call sits inside an expression — most commonly an if condition,
	// `if ok := r.Reserve(x); ok`, or a && chain. Find the guarding if.
	if ifStmt, positive := enclosingIf(pass, stack); ifStmt != nil {
		paired(ifStmt, positive)
		return
	}
	// Consumed some other way (stored in a struct, passed along): treat
	// as checked but still require a reachable Release.
	paired(nil, true)
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	return "Reserve"
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

type guardIf struct {
	ifStmt   *ast.IfStmt
	positive bool // true when the if body is the success branch
}

// findGuardIf looks for the first if statement after the assignment (in
// the same or an enclosing block) whose condition reads the assigned
// variable, and derives the branch polarity from the condition's shape.
func findGuardIf(pass *Pass, stack []ast.Node, asg *ast.AssignStmt, obj types.Object) *guardIf {
	if obj == nil {
		return nil
	}
	// `if ok := r.Reserve(x); ok { ... }`: the assign is the guard's init.
	if ifStmt, ok := parentOfNode(stack, asg).(*ast.IfStmt); ok && ifStmt.Init == asg {
		if pol, reads := condPolarity(pass, ifStmt.Cond, obj); reads {
			return &guardIf{ifStmt: ifStmt, positive: pol}
		}
	}
	// Otherwise: the first later if (in this or an enclosing block) whose
	// condition reads the variable.
	var cur ast.Node = asg
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		idx := stmtIndex(block.List, cur)
		if idx >= 0 {
			for j := idx + 1; j < len(block.List); j++ {
				if ifStmt, ok := block.List[j].(*ast.IfStmt); ok {
					if pol, reads := condPolarity(pass, ifStmt.Cond, obj); reads {
						return &guardIf{ifStmt: ifStmt, positive: pol}
					}
				}
			}
		}
		cur = block
	}
	return nil
}

func parentOfNode(stack []ast.Node, target ast.Node) ast.Node {
	for i := len(stack) - 1; i > 0; i-- {
		if stack[i] == target {
			return stack[i-1]
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

// condPolarity reports whether cond reads obj and whether the then
// branch is the success branch (`if ok`) or the failure branch
// (`if !ok`).
func condPolarity(pass *Pass, cond ast.Expr, obj types.Object) (positive, reads bool) {
	positive = true
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op.String() == "!" {
				if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					positive, reads = false, true
					return false
				}
			}
		case *ast.Ident:
			if pass.Info.Uses[e] == obj {
				reads = true
			}
		}
		return true
	})
	return positive, reads
}

// enclosingIf finds the if statement whose condition contains the
// Reserve call itself, with polarity from negation depth.
func enclosingIf(pass *Pass, stack []ast.Node) (*ast.IfStmt, bool) {
	call := stack[len(stack)-1]
	negations := 0
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "!" {
				negations++
			}
		case *ast.IfStmt:
			if containsNode(n.Cond, call) {
				return n, negations%2 == 0
			}
			return nil, true
		case *ast.ForStmt:
			if n.Cond != nil && containsNode(n.Cond, call) {
				return nil, true // loop condition: treated as checked
			}
			return nil, true
		case ast.Stmt:
			// The call's statement is not an if condition (e.g. the init
			// of `if ok := r.Reserve(x); ok` — keep climbing only through
			// the if's own init).
			if _, isAssign := n.(*ast.AssignStmt); isAssign {
				continue
			}
			return nil, true
		}
	}
	return nil, true
}

// checkSuccessPath verifies that the success path from the guard (or
// from the call's own statement when guard is nil) reaches a Release.
func checkSuccessPath(pass *Pass, funcName string, call *ast.CallExpr, stack []ast.Node, guard *ast.IfStmt, positive bool) {
	if funcName == "mustReserve" || funcName == "MustReserve" {
		return // the sanctioned panic-on-refusal wrapper; callers release
	}
	w := pathWalk{leaf: releaseLeaf(pass)}
	var res pathResult
	if guard != nil && positive {
		// Success = the if body, falling through to what follows the if.
		res = w.stmts(guard.Body.List)
		if res == pathNeutral {
			res = w.after(stack, guard)
		}
	} else if guard != nil {
		// `if !ok { ... }`: failure handled in the body; success resumes
		// after the if.
		res = w.after(stack, guard)
	} else {
		res = w.after(stack, stack[len(stack)-1])
	}
	switch res {
	case pathLeaky:
		pass.Reportf(call.Pos(), "successful %s can return without Release: release on every success path or defer it", calleeName(pass.Info, call))
	case pathNeutral:
		pass.Reportf(call.Pos(), "successful %s never reaches a Release in %s: pair every reserve with a release", calleeName(pass.Info, call), funcName)
	}
}

type pathResult int

const (
	pathNeutral  pathResult = iota // falls through, no release yet
	pathReleased                   // a release (or divergence) covers the path
	pathLeaky                      // a path returns with the reservation held
)

// pathWalk is the one path sweep reservepair and spanpair share: the
// outcome of the statements after a site for one obligation (a
// reservation, an open span). leaf says what an ExprStmt, AssignStmt,
// DeferStmt, GoStmt or ReturnStmt does to the obligation; compound
// statements join their branches the same way for both analyzers. Leaks
// dominate; otherwise a discharge anywhere on a branch is accepted
// (optimistic join — flow-sensitive guards like `if reservedMB > 0 {
// mem.Release(reservedMB) }` pair with conditional reserves the analyzer
// cannot correlate).
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

// releaseLeaf is reservepair's leaf: a Release, a deferred release, a
// goroutine that releases, or a panic covers the reservation; a return
// leaks it.
func releaseLeaf(pass *Pass) func(ast.Stmt) pathResult {
	return func(stmt ast.Stmt) pathResult {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if isReleaseCall(pass.Info, call) {
					return pathReleased
				}
				if isPanicCall(pass.Info, call) {
					return pathReleased // divergence: the unwind is not a leak
				}
			}
		case *ast.DeferStmt:
			if isReleaseCall(pass.Info, s.Call) {
				return pathReleased
			}
			if fl, ok := s.Call.Fun.(*ast.FuncLit); ok && bodyReleases(pass, fl.Body) {
				return pathReleased
			}
		case *ast.GoStmt:
			if fl, ok := s.Call.Fun.(*ast.FuncLit); ok && bodyReleases(pass, fl.Body) {
				return pathReleased // async release: the spawned goroutine pays
			}
		case *ast.ReturnStmt:
			return pathLeaky
		}
		return pathNeutral
	}
}

func bodyReleases(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isReleaseCall(pass.Info, call) {
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
