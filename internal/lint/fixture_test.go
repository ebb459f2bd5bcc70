package lint

// The fixture harness is a stdlib-only analogue of
// golang.org/x/tools/go/analysis/analysistest: each analyzer gets a
// package under testdata/src/<name>/ whose lines carry
//
//	// want `regex`
//
// comments naming the diagnostics expected on that line (multiple
// backquoted regexes allowed). The test fails on any diagnostic
// without a matching want, and on any want without a matching
// diagnostic. Suppression directives are exercised too, since the
// harness runs the same lint.Run the drivers use.

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestPoolEscapeFixtures(t *testing.T) { runFixture(t, PoolEscape, "poolescape") }
func TestLockHeldFixtures(t *testing.T)   { runFixture(t, LockHeld, "lockheld") }
func TestCtxFlowFixtures(t *testing.T)    { runFixture(t, CtxFlow, "ctxflow") }
func TestSoapFaultFixtures(t *testing.T)  { runFixture(t, SoapFault, "soapfault") }
func TestRawXMLFixtures(t *testing.T)     { runFixture(t, RawXML, "rawxml") }

func TestGoroutineLifeFixtures(t *testing.T) { runFixture(t, GoroutineLife, "goroutinelife") }
func TestTimerLeakFixtures(t *testing.T)     { runFixture(t, TimerLeak, "timerleak") }
func TestSpanLeakFixtures(t *testing.T)      { runFixture(t, SpanLeak, "spanleak") }

// The *_interproc fixtures put every violation behind at least one
// helper call, so they fail against a purely intraprocedural walk.
func TestLockHeldInterprocFixtures(t *testing.T) {
	runFixture(t, LockHeld, "lockheld_interproc")
}
func TestPoolEscapeInterprocFixtures(t *testing.T) {
	runFixture(t, PoolEscape, "poolescape_interproc")
}
func TestCtxFlowInterprocFixtures(t *testing.T) {
	runFixture(t, CtxFlow, "ctxflow_interproc")
}

// interproc_cycle pins that the summary fixed point terminates on
// recursive and mutually recursive call graphs and that facts still
// propagate out of the cycle.
func TestInterprocCycleFixtures(t *testing.T) {
	runFixture(t, LockHeld, "interproc_cycle")
}

var wantPayloadRe = regexp.MustCompile("`([^`]*)`")

type wantKey struct {
	file string
	line int
}

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
}

func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(moduleRoot, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range pkg.TypeErrors {
		t.Errorf("fixture does not type-check: %v", te)
	}
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := map[wantKey][]*wantEntry{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantPayloadRe.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					key := wantKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], &wantEntry{re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}

	for _, d := range diags {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Message, d.Check)
		}
	}
	for key, entries := range wants {
		for _, w := range entries {
			if !w.matched {
				t.Errorf("missing diagnostic at %s:%d: no message matched %q", key.file, key.line, w.re)
			}
		}
	}
}
