package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// simulatedPackages are the packages whose execution paths run on
// simulated time: every pause in them must go through the
// internal/vtime wheel so thousands of concurrent sub-millisecond
// sleeps share one dispatcher and one armed OS timer. A raw stdlib
// timer here reintroduces the per-flight timer churn PR 6 removed.
// Genuine wall-clock sites (epoch stamps, drain timeouts) opt out per
// line with //amsvet:allow vtimesleep <reason>.
var simulatedPackages = map[string]bool{
	"ams/internal/sim":   true,
	"ams/internal/batch": true,
	"ams/internal/serve": true,
	"ams/internal/shard": true,
}

// pauseFuncs are the package-level functions that park the caller or arm
// a per-call OS timer: the stdlib timers, and the raw hrtimer sleeps the
// wheel's own dispatcher is built on (internal/vtime/wheel_linux.go),
// which block a whole OS thread and belong nowhere else.
var pauseFuncs = map[string]map[string]bool{
	"time": {
		"Sleep":     true,
		"After":     true,
		"AfterFunc": true,
		"NewTimer":  true,
		"NewTicker": true,
		"Tick":      true,
	},
	"syscall": {
		"Nanosleep": true,
		"Pselect":   true,
		"Select":    true,
	},
}

// VtimeSleep enforces the simulated-time discipline.
var VtimeSleep = &Analyzer{
	Name: "vtimesleep",
	Doc: "In simulated-execution packages (internal/sim, internal/batch, " +
		"internal/serve, internal/shard), pauses must run on the " +
		"internal/vtime wheel, not raw time.Sleep/After/NewTimer or " +
		"syscall.Nanosleep/Pselect/Select: per-execution stdlib timers " +
		"drown the runtime in timer churn at small TimeScale values, which " +
		"is the bug the wheel was built to fix, and a raw nanosleep parks " +
		"an OS thread per sleeper where the wheel parks one.",
	Run: runVtimeSleep,
}

func runVtimeSleep(pass *Pass) error {
	if !simulatedPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue // tests may pace themselves on the wall clock
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.Info, call); fn != nil &&
				fn.Pkg() != nil && pauseFuncs[fn.Pkg().Path()][fn.Name()] {
				pass.Reportf(call.Pos(), "%s.%s in simulated-execution package %s: pace on the internal/vtime wheel instead",
					fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// isTestFile reports whether f came from a _test.go file.
func isTestFile(pass *Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

// calleeFunc resolves the *types.Func a call invokes, or nil for calls
// through function values, built-ins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
