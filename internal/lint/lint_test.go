package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIgnoreDirectives pins the suppression grammar: the check list
// must name an ogsalint check, the reason is mandatory, and a
// directive covers its own line plus the line below.
func TestIgnoreDirectives(t *testing.T) {
	const src = `package p

//lint:ignore ogsalint/rawxml golden wire capture
var a = "<Envelope/>"

//lint:ignore ogsalint/poolescape
var b = 1

//lint:ignore ogsalint/rawxml,ogsalint/soapfault shared reason
var c = 2

//lint:ignore SA1019 someone else's directive, not ours
var d = 3
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	set, bad := collectIgnores(fset, []*ast.File{f})

	if len(bad) != 1 {
		t.Fatalf("want exactly 1 reason-less directive reported, got %d: %v", len(bad), bad)
	}
	if bad[0].Check != "ogsalint/ignore" || bad[0].Pos.Line != 6 {
		t.Errorf("bad-directive diagnostic misattributed: %+v", bad[0])
	}

	covered := func(line int, check string) bool {
		return set.covers(Diagnostic{
			Pos:   token.Position{Filename: "ignore.go", Line: line},
			Check: check,
		})
	}
	if !covered(4, "ogsalint/rawxml") {
		t.Error("directive must cover the line below it")
	}
	if !covered(3, "ogsalint/rawxml") {
		t.Error("directive must cover its own line")
	}
	if covered(5, "ogsalint/rawxml") {
		t.Error("directive must not reach two lines down")
	}
	if covered(7, "ogsalint/poolescape") {
		t.Error("reason-less directive must not suppress anything")
	}
	if !covered(10, "ogsalint/soapfault") || !covered(10, "ogsalint/rawxml") {
		t.Error("comma-separated check list must cover every named check")
	}
	if covered(13, "SA1019") {
		t.Error("non-ogsalint directives are not ours to honor")
	}
}

// TestStaleIgnoreDirectives pins the report of directives that
// suppress nothing: a live directive covers its finding silently, a
// directive for a check that ran but found nothing there is stale, a
// misspelled check name is not a check, and a directive for a check
// that did not run is left alone.
func TestStaleIgnoreDirectives(t *testing.T) {
	const src = `package stale

//lint:ignore ogsalint/rawxml golden wire capture
var live = "<Envelope/>"

//lint:ignore ogsalint/rawxml nothing below is markup
var stale = "plain"

//lint:ignore ogsalint/rawxl misspelled check name
var typo = "<Body/>"

//lint:ignore ogsalint/soapfault soapfault does not run here
var other = 1
`
	dir := filepath.Join(t.TempDir(), "stale")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stale.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(moduleRoot, dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := NewProgram([]*Package{pkg}).RunPackage(pkg, []*Analyzer{RawXML})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		line       int
		check, msg string
		suppressed bool
	}{
		{4, "ogsalint/rawxml", "hand-written XML literal", true},
		{6, "ogsalint/ignore", "lint:ignore for ogsalint/rawxml suppresses no finding", false},
		{9, "ogsalint/ignore", "lint:ignore names ogsalint/rawxl, which is not an ogsalint check", false},
		{10, "ogsalint/rawxml", "hand-written XML literal", false},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		w := want[i]
		if d.Pos.Line != w.line || d.Check != w.check || !strings.HasPrefix(d.Message, w.msg) || d.Suppressed != w.suppressed {
			t.Errorf("diagnostic %d = %v (suppressed %v), want line %d %s %q (suppressed %v)",
				i, d, d.Suppressed, w.line, w.check, w.msg, w.suppressed)
		}
	}
}

// TestAnalyzersStable pins the suite composition `ogsalint -doc`
// advertises.
func TestAnalyzersStable(t *testing.T) {
	want := []string{"poolescape", "lockheld", "ctxflow", "soapfault", "rawxml", "goroutinelife", "timerleak", "spanleak"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
	}
}
