package analysis

import (
	"go/ast"
	"go/types"
)

// SpanPair enforces the span lifecycle of the obs tracing seam.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc: "Every span opened on the obs tracing seam must be closed on " +
		"every control-flow path: a Tracer.Begin result must reach " +
		"Tracer.End, and an ItemTrace.StartSpan/StartSpanAt id must reach " +
		"EndSpan/EndSpanAt. An unclosed item trace never commits to the " +
		"ring (the item simply vanishes from /tracez), and an unclosed " +
		"child span reads as an infinite stage in the critical-path " +
		"attribution. Discarding the open result outright makes the close " +
		"impossible and is reported immediately. Deferring the close is " +
		"sanctioned, as is handing the obligation away whole: returning " +
		"the open result or passing it to another call (the serve loop's " +
		"finish(..., trace) shape) forwards the close duty to the " +
		"receiver. Only receiver types named Tracer and ItemTrace are in " +
		"scope — the corpus's unrelated Begin(seq) lifecycle is not a " +
		"span open.",
	Run: runSpanPair,
}

func runSpanPair(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncSpans(pass, fd.Name.Name, fd.Body)
		}
	}
	return nil
}

// checkFuncSpans analyzes one function body, nested function literals
// included — a closure that opens a span owes its close just the same.
func checkFuncSpans(pass *Pass, funcName string, body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok {
			if opener, ok := spanOpenCall(pass.Info, call); ok {
				checkSpanSite(pass, funcName, call, opener, append([]ast.Node(nil), stack...))
			}
		}
		return true
	})
}

// spanOpener describes one open-call shape and the close that pays it.
type spanOpener struct {
	open, close string
}

// spanOpenCall reports whether call opens a span: Begin on a receiver
// type named Tracer, or StartSpan/StartSpanAt on a receiver type named
// ItemTrace. The name match is deliberate — any other Begin (the corpus
// ingestion lifecycle, say) is a different protocol with its own rules.
func spanOpenCall(info *types.Info, call *ast.CallExpr) (spanOpener, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return spanOpener{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 {
		return spanOpener{}, false
	}
	recv := recvTypeName(sig.Recv())
	switch {
	case fn.Name() == "Begin" && recv == "Tracer":
		return spanOpener{open: "Begin", close: "End"}, true
	case (fn.Name() == "StartSpan" || fn.Name() == "StartSpanAt") && recv == "ItemTrace":
		return spanOpener{open: fn.Name(), close: "EndSpan"}, true
	}
	return spanOpener{}, false
}

// spanCloseCall reports whether call is a close on the tracing seam:
// End (Tracer) or EndSpan/EndSpanAt (ItemTrace).
func spanCloseCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch recvTypeName(sig.Recv()) {
	case "Tracer":
		return fn.Name() == "End"
	case "ItemTrace":
		return fn.Name() == "EndSpan" || fn.Name() == "EndSpanAt"
	}
	return false
}

// checkSpanSite classifies how one open call's result is consumed and,
// when it lands in a variable, verifies every path from the open
// reaches a close (or hands the obligation away).
func checkSpanSite(pass *Pass, funcName string, call *ast.CallExpr, op spanOpener, stack []ast.Node) {
	parent := parentOf(stack, len(stack)-1)
	switch p := parent.(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result of %s is discarded: the span can never be closed with %s", op.open, op.close)
		return
	case *ast.GoStmt, *ast.DeferStmt:
		pass.Reportf(call.Pos(), "result of %s is discarded by go/defer: the span can never be closed", op.open)
		return
	case *ast.ReturnStmt:
		return // forwarding: the caller inherits the close obligation
	case *ast.AssignStmt:
		lhs := assignTarget(p, call)
		if lhs == nil {
			return // multi-value or indirect target: treated as escaped
		}
		if lhs.Name == "_" {
			pass.Reportf(call.Pos(), "result of %s is assigned to _: the span can never be closed with %s", op.open, op.close)
			return
		}
		obj := pass.Info.Defs[lhs]
		if obj == nil {
			obj = pass.Info.Uses[lhs]
		}
		if obj == nil {
			return
		}
		switch (pathWalk{leaf: spanLeaf(pass, obj)}).after(stack, p) {
		case pathLeaky:
			pass.Reportf(call.Pos(), "span from %s can return without %s: close on every path or defer it", op.open, op.close)
		case pathNeutral:
			pass.Reportf(call.Pos(), "span from %s never reaches %s in %s: pair every open with a close", op.open, op.close, funcName)
		}
		return
	}
	// The result feeds an expression directly — an argument of another
	// call, a composite literal, a field store. The obligation moved with
	// the value; its new owner is accountable.
}

// spanLeaf is spanpair's leaf for the span variable obj. A close is any
// End/EndSpan/EndSpanAt whose arguments mention the span variable; a
// discharge is forwarding it — returning it, passing it to any other
// call, or storing it — after which the new holder owes the close. A
// panic diverges; any other return leaks the span.
func spanLeaf(pass *Pass, obj types.Object) func(ast.Stmt) pathResult {
	return func(stmt ast.Stmt) pathResult {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if spanDischarged(pass, call, obj) {
					return pathReleased
				}
				if isPanicCall(pass.Info, call) {
					return pathReleased // divergence: the unwind is not a leak
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				if usesObj(pass, rhs, obj) {
					return pathReleased // escaped into another binding or field
				}
			}
		case *ast.DeferStmt:
			if spanDischarged(pass, s.Call, obj) {
				return pathReleased
			}
			if fl, ok := s.Call.Fun.(*ast.FuncLit); ok && usesObj(pass, fl.Body, obj) {
				return pathReleased
			}
		case *ast.GoStmt:
			if fl, ok := s.Call.Fun.(*ast.FuncLit); ok && usesObj(pass, fl.Body, obj) {
				return pathReleased // async close: the spawned goroutine pays
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if usesObj(pass, res, obj) {
					return pathReleased // forwarded to the caller
				}
			}
			return pathLeaky
		}
		return pathNeutral
	}
}

// spanDischarged reports whether call pays the open's obligation: a
// close call whose arguments mention the span variable, or any other
// call the variable is handed to as an argument (forwarding — the
// serve loop's finish(..., trace) hands the whole trace, and with it
// the End duty, to one terminal function). Uses of the variable as a
// mere receiver (trace.Add(ev)) neither close nor forward.
func spanDischarged(pass *Pass, call *ast.CallExpr, obj types.Object) bool {
	for _, arg := range call.Args {
		if usesObj(pass, arg, obj) {
			return spanCloseCall(pass.Info, call) || !isSpanOpenOrNote(pass.Info, call)
		}
	}
	return false
}

// isSpanOpenOrNote keeps an open call from discharging itself.
func isSpanOpenOrNote(info *types.Info, call *ast.CallExpr) bool {
	_, ok := spanOpenCall(info, call)
	return ok
}

func usesObj(pass *Pass, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
