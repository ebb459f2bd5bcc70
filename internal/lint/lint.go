// Analyzer/Pass/Diagnostic plumbing and the suppression-aware runner.
// The package documentation, including the guide to writing analyzers
// against interprocedural summaries, lives in doc.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name is the short check name; diagnostics print as
	// "ogsalint/<Name>" and suppression comments reference it the
	// same way.
	Name string
	// Doc is the one-line invariant statement shown by `ogsalint -doc`.
	Doc string
	// Run inspects one package through pass and reports findings.
	Run func(pass *Pass) error
}

// A Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole-load call graph and summary table; analyzers
	// use it to see through helper calls (see summary.go and doc.go).
	Prog *Program

	diags *[]Diagnostic
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos     token.Position
	Check   string // "ogsalint/<name>"
	Message string
	// Suppressed marks findings covered by a lint:ignore directive;
	// RunPackage keeps them (for -json inventories), Run drops them.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Check)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   "ogsalint/" + p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full ogsalint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		PoolEscape,
		LockHeld,
		CtxFlow,
		SoapFault,
		RawXML,
		GoroutineLife,
		TimerLeak,
		SpanLeak,
	}
}

// RunPackage applies the analyzers to one package of prog's load and
// returns every diagnostic in file/line order, with findings covered
// by a lint:ignore directive marked Suppressed rather than removed.
// Directives are checked too, as ogsalint/ignore findings at their own
// line: one without a reason, one naming a check the suite does not
// have, and one naming a check that ran here but covering no finding
// of it. A directive for a check that did not run is left alone.
func (prog *Program) RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Prog:      prog,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("ogsalint/%s on %s: %w", a.Name, pkg.ImportPath, err)
		}
		ran["ogsalint/"+a.Name] = true
	}
	ignores, bad := collectIgnores(pkg.Fset, pkg.Files)
	for i := range diags {
		if ignores.covers(diags[i]) {
			diags[i].Suppressed = true
		}
	}
	suite := map[string]bool{}
	for _, a := range Analyzers() {
		suite["ogsalint/"+a.Name] = true
	}
	for _, ig := range ignores {
		switch {
		case !suite[ig.check]:
			bad = append(bad, ignoreFinding(ig.pos, "lint:ignore names %s, which is not an ogsalint check", ig.check))
		case ran[ig.check] && !ig.used:
			bad = append(bad, ignoreFinding(ig.pos, "lint:ignore for %s suppresses no finding; delete the directive", ig.check))
		}
	}
	diags = append(diags, bad...)
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Check < diags[j].Check
	})
	return diags, nil
}

// FilterSuppressed drops suppressed diagnostics, preserving order.
func FilterSuppressed(diags []Diagnostic) []Diagnostic {
	kept := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// ignoreSet holds, in source order, each check named by a reasoned
// lint:ignore directive. A directive covers its own line and the line
// below it (the usual "comment above the statement" placement).
type ignoreSet []*ignore

// An ignore is one check one directive names.
type ignore struct {
	pos   token.Position // the directive's own position
	check string         // "ogsalint/<name>"
	used  bool           // it has covered a finding
}

// covers reports whether a directive names d's check on d's line or
// the line above, and marks every such directive used.
func (s ignoreSet) covers(d Diagnostic) bool {
	covered := false
	for _, ig := range s {
		if ig.check == d.Check && ig.pos.Filename == d.Pos.Filename &&
			(ig.pos.Line == d.Pos.Line || ig.pos.Line == d.Pos.Line-1) {
			ig.used = true
			covered = true
		}
	}
	return covered
}

// ignoreFinding reports a faulty directive at the directive itself.
func ignoreFinding(pos token.Position, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: pos, Check: "ogsalint/ignore", Message: fmt.Sprintf(format, args...)}
}

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s*(.*)$`)

func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Diagnostic) {
	var set ignoreSet
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				checks, reason := m[1], strings.TrimSpace(m[2])
				if !strings.Contains(checks, "ogsalint/") {
					continue // someone else's lint directive
				}
				pos := fset.Position(c.Pos())
				if reason == "" {
					bad = append(bad, ignoreFinding(pos, "lint:ignore directive needs a reason"))
					continue
				}
				for _, check := range strings.Split(checks, ",") {
					if check = strings.TrimSpace(check); strings.HasPrefix(check, "ogsalint/") {
						set = append(set, &ignore{pos: pos, check: check})
					}
				}
			}
		}
	}
	return set, bad
}

// ---- shared type-resolution helpers used by the analyzers ----

// callee resolves the *types.Func a call invokes, or nil for calls
// through function values, built-ins, and type conversions.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	f, _ := info.Uses[calledIdent(call)].(*types.Func)
	return f
}

// calledIdent is the name a call is spelled with: the function,
// method, field or variable it invokes, or nil for any other callee
// expression.
func calledIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// calleeIsFunc reports whether call invokes the package-level function
// pkgPath.name.
func calleeIsFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := callee(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
}

// calleeIsMethod reports whether call invokes a method named name
// whose receiver's core named type is pkgPath.typeName (pointerness
// ignored).
func calleeIsMethod(info *types.Info, call *ast.CallExpr, pkgPath, typeName, name string) bool {
	f := callee(info, call)
	if f == nil || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgPath, typeName)
}

// isNamed reports whether t (after pointer stripping) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// exprString renders an expression for use in diagnostics and as a
// stable key for lock tracking.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// enclosingFuncs walks file and calls fn for every function body —
// declarations and literals — so analyzers can run per-function logic
// uniformly. The enclosing FuncDecl is passed when there is one (nil
// for literals at package scope).
func enclosingFuncs(file *ast.File, fn func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				fn(v, nil, v.Body)
			}
		case *ast.FuncLit:
			fn(nil, v, v.Body)
		}
		return true
	})
}

// mentions reports whether expr (or any subexpression) is a use of the
// object obj.
func mentions(info *types.Info, node ast.Node, obj types.Object) bool {
	if node == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
