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
// diagnostic. Suppression directives are exercised too, since Run
// filters them through the same RunPackage the driver uses.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
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

// Run applies the analyzers to one loaded package and returns the
// surviving (non-suppressed) diagnostics in file/line order, the way
// the fixture tests read them. Interprocedural resolution is limited to
// the package itself; a driver analyzing a whole load builds one
// Program and uses RunPackage so summaries span every loaded package.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, err := NewProgram([]*Package{pkg}).RunPackage(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	return FilterSuppressed(diags), nil
}

// LoadDir parses and type-checks every .go file directly in dir as a
// single package, resolving imports on demand. This is the fixture
// path: analysistest packages live under testdata, outside the go
// tool's view, so they are never part of a `go list ./...` walk.
//
// The importer (and with it the export-data table and the gc reader's
// package cache) is shared process-wide per module root: the first
// LoadDir pays for `go list -export` and export-file decoding, every
// later one reuses both instead of re-running the subprocess per
// fixture.
func LoadDir(moduleRoot, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read fixture dir: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	fset, imp := sharedLoader(moduleRoot)
	return checkPackage(fset, imp, "testdata/"+filepath.Base(dir), dir, files)
}

// loaderCache holds one fset+importer pair per module root. The fset
// is shared with the parsed fixture files so importer positions and
// source positions live in one space; a FileSet is append-only, so
// accumulating every fixture package in it is safe.
var loaderCache = struct {
	sync.Mutex
	byRoot map[string]*loaderEntry
}{byRoot: map[string]*loaderEntry{}}

type loaderEntry struct {
	fset *token.FileSet
	imp  *exportImporter
}

func sharedLoader(moduleRoot string) (*token.FileSet, *exportImporter) {
	loaderCache.Lock()
	defer loaderCache.Unlock()
	e := loaderCache.byRoot[moduleRoot]
	if e == nil {
		fset := token.NewFileSet()
		e = &loaderEntry{fset: fset, imp: newExportImporter(fset, moduleRoot, map[string]string{})}
		loaderCache.byRoot[moduleRoot] = e
	}
	return e.fset, e.imp
}
