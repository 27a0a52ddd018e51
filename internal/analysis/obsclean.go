package analysis

import (
	"go/ast"
	"go/types"
)

// registrationMethods are the obs.Registry methods whose first argument
// is the metric name. Metric names are series identities: a name built
// at call time (fmt.Sprintf in an item loop, a tag interpolated into
// the name) mints a new family per call, growing the registry without
// bound and shredding the exposition into single-sample series. Names
// must be compile-time constants; variance belongs in labels.
var registrationMethods = map[string]bool{
	"Counter":     true,
	"Histogram":   true,
	"CounterFunc": true,
	"GaugeFunc":   true,
}

// Obsclean enforces the telemetry layer's two hygiene rules.
var Obsclean = &Analyzer{
	Name: "obsclean",
	Doc: "Telemetry hygiene: (1) metric registration (Registry.Counter/" +
		"Histogram/CounterFunc/GaugeFunc) takes a compile-time " +
		"constant name — dynamic names mint unbounded families, one per " +
		"call; put variance in labels. (2) In simulated-execution packages " +
		"(internal/sim, internal/batch, internal/serve, internal/shard) " +
		"wall-clock spans go through the obs seam (obs.SinceSeconds, " +
		"Histogram.ObserveSince/ObserveScaledSince), not raw time.Since: " +
		"the seam is what keeps real-clock instruments distinguishable " +
		"from the simulated clock the schedules run on.",
	Run: runObsclean,
}

func runObsclean(pass *Pass) error {
	checkSince := simulatedPackages[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue // tests may build names and read clocks as they like
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if checkSince && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Since" {
				pass.Reportf(call.Pos(), "time.Since in simulated-execution package %s: measure real spans through the obs seam (obs.SinceSeconds / Histogram.ObserveSince) so wall and simulated clocks stay distinguishable",
					pass.Pkg.Path())
			}
			if registrationMethods[fn.Name()] && isRegistryMethod(fn) && len(call.Args) > 0 {
				if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value == nil {
					pass.Reportf(call.Args[0].Pos(), "metric name passed to Registry.%s is not a compile-time constant: dynamic names mint one family per call — use a constant name and put the variance in labels",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// isRegistryMethod reports whether fn is a method on a named type called
// Registry (pointer or value receiver). Matching by type name rather
// than by import path keeps the check fixture-testable and catches any
// future registry clone wholesale.
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}
