// Package analysis is amsvet: a suite of repo-specific static analyzers
// that mechanically enforce the serving stack's concurrency and
// durability invariants. Each analyzer is grounded in a bug class that
// has already appeared in this repo and been hand-fixed once:
//
//   - vtimesleep: simulated-execution packages pace themselves on the
//     vtime wheel, never on raw time.Sleep/time.After (the PR-6
//     migration off per-execution sleeps).
//   - lockblock: no blocking operation — channel op, Wait, Sleep, fsync
//     — while a sync.Mutex acquired in the same function is held (the
//     PR-7 fsync-under-the-corpus-mutex rework).
//   - ctxflow: library code propagates the caller's context.Context
//     instead of minting context.Background, and never drops a ctx
//     parameter on the floor.
//   - obsclean: metric names at Registry registration sites are
//     compile-time constants (variance belongs in labels, not names),
//     and simulated-execution packages measure real spans through the
//     obs seam instead of raw time.Since (the PR-9 instrumentation
//     discipline: wall and simulated clocks must stay distinguishable).
//
// Two pairings need no analyzer. The memory accountant's: a claim above
// the whole budget panics in the accountant, so no refusal can be
// dropped, and a server whose Close finds memory still claimed returns
// an error. The span tree's: the serving path records every child span
// already closed (ItemTrace.SpanBetween), and a server whose Close finds
// an item trace begun but never ended returns an error.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is self-contained on the standard library's go/ast and
// go/types, because this module deliberately has no external
// dependencies. Findings can be suppressed one line at a time with a
// reasoned escape hatch:
//
//	//amsvet:allow <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory — an allow comment without one is itself a diagnostic —
// and so is an allow that suppresses nothing there: a stale one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //amsvet:allow comments.
	Name string
	// Doc is a one-paragraph description: the invariant enforced and
	// the historical bug that motivated it.
	Doc string
	// Run reports violations via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed non-test sources.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one reported violation, positioned for editors.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full amsvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		VtimeSleep,
		LockBlock,
		CtxFlow,
		Obsclean,
	}
}

// Check runs every analyzer in suite over pkg and returns the surviving
// diagnostics: findings on lines carrying a matching //amsvet:allow
// comment are suppressed, and malformed allow comments (no analyzer
// name, no reason, or a name no analyzer answers to) and stale ones
// (their analyzer found nothing on their line or the next) are reported
// as findings of the pseudo-analyzer "allow".
func Check(pkg *Package, suite []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range suite {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	set, allows, bad := collectAllows(pkg.Fset, pkg.Files, suite)
	kept := diags[:0]
	for _, d := range diags {
		if !set.covers(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	for _, a := range allows {
		if !a.used {
			kept = append(kept, Diagnostic{Pos: a.pos, Analyzer: "allow",
				Message: fmt.Sprintf("stale //amsvet:allow: %s reports nothing on this line or the next", a.analyzer)})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// allowDirective is the escape-hatch comment marker.
const allowDirective = "//amsvet:allow"

// allowSet maps (file, line, analyzer) to a sanctioned suppression. A
// comment suppresses findings on its own line and on the line below it
// (the usual placement: a full-line comment above the offending call).
type allowSet map[string]*allow

// allow is one well-formed //amsvet:allow comment; used records that it
// suppressed a finding.
type allow struct {
	pos      token.Position
	analyzer string
	used     bool
}

func (s allowSet) covers(d Diagnostic) bool {
	a := s[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Analyzer)]
	if a != nil {
		a.used = true
	}
	return a != nil
}

// collectAllows returns the suppressions of the well-formed allow
// comments, those comments in source order, and a finding for each
// malformed one.
func collectAllows(fset *token.FileSet, files []*ast.File, suite []*Analyzer) (allowSet, []*allow, []Diagnostic) {
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	set := make(allowSet)
	var allows []*allow
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, allowDirective)
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "allow",
						Message: "malformed //amsvet:allow: want \"//amsvet:allow <analyzer> <reason>\""})
				case !known[fields[0]]:
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "allow",
						Message: fmt.Sprintf("//amsvet:allow names unknown analyzer %q", fields[0])})
				case len(fields) < 2:
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "allow",
						Message: fmt.Sprintf("//amsvet:allow %s needs a reason", fields[0])})
				default:
					a := &allow{pos: pos, analyzer: fields[0]}
					allows = append(allows, a)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set[fmt.Sprintf("%s:%d:%s", pos.Filename, line, fields[0])] = a
					}
				}
			}
		}
	}
	return set, allows, bad
}
