package analysis_test

import (
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ams/internal/analysis"
	"ams/internal/analysis/analysistest"
)

func TestVtimeSleep(t *testing.T) {
	analysistest.Run(t, "testdata/vtimesleep", analysis.VtimeSleep)
}

// TestVtimeSleepOutOfScope proves the analyzer is scoped: the same raw
// timers in a wall-clock package produce no diagnostics.
func TestVtimeSleepOutOfScope(t *testing.T) {
	analysistest.Run(t, "testdata/vtimesleep_out", analysis.VtimeSleep)
}

func TestObsclean(t *testing.T) {
	analysistest.Run(t, "testdata/obsclean", analysis.Obsclean)
}

// TestObscleanOutOfScope proves the time.Since rule is scoped to
// simulated-execution packages while the constant-name rule is global.
func TestObscleanOutOfScope(t *testing.T) {
	analysistest.Run(t, "testdata/obsclean_out", analysis.Obsclean)
}

func TestLockBlock(t *testing.T) {
	analysistest.Run(t, "testdata/lockblock", analysis.LockBlock)
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata/ctxflow", analysis.CtxFlow)
}

// TestSuiteCleanOnTree runs the full suite over the whole module — the
// same run CI's amsvet job performs — so a new invariant violation fails
// tier-1 tests even before CI. Every pre-existing true positive was
// either fixed in this tree or carries a reasoned //amsvet:allow.
func TestSuiteCleanOnTree(t *testing.T) {
	pkgs := loadTree(t)
	suite := analysis.All()
	for _, pkg := range pkgs {
		diags, err := analysis.Check(pkg, suite)
		if err != nil {
			t.Fatalf("check %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

var tree struct {
	once sync.Once
	pkgs []*analysis.Package
	err  error
}

// loadTree loads and typechecks the whole module once per test binary,
// for the checks that read all of it; it skips under -short.
func loadTree(t *testing.T) []*analysis.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	tree.once.Do(func() { tree.pkgs, tree.err = analysis.Load("../..", "./...") })
	if tree.err != nil {
		t.Fatalf("load module: %v", tree.err)
	}
	if len(tree.pkgs) == 0 {
		t.Fatal("loader matched no packages")
	}
	return tree.pkgs
}

// TestAllowNeedsReason covers the escape hatch's own contract: an allow
// comment without a reason, naming an unknown analyzer, or suppressing
// nothing is a finding. The malformed rows' findings are listed here; the
// stale row's is the want its reason carries.
func TestAllowNeedsReason(t *testing.T) {
	pkg, err := analysis.LoadFixture("testdata/allowform")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := analysis.Check(pkg, analysis.All())
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	src, err := os.ReadFile(diags[2].Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := strings.Cut(strings.Split(string(src), "\n")[diags[2].Pos.Line-1], `// want "`)
	if !ok {
		t.Fatalf("%s: the stale row carries no want", diags[2].Pos)
	}
	for i, pat := range []string{"needs a reason", "unknown analyzer", strings.TrimSuffix(want, `"`)} {
		if !regexp.MustCompile(pat).MatchString(diags[i].Message) {
			t.Errorf("diagnostic %d = %q, want a match for %q", i, diags[i].Message, pat)
		}
	}
}
