package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects type-check problems. Analysis still runs on
	// a partially typed package (the go/analysis convention), but the
	// driver surfaces these so a broken tree isn't silently half-linted.
	TypeErrors []error
}

// goListPkg is the subset of `go list -json` output the loader reads.
type goListPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists patterns in dir (a directory inside the target module),
// type-checks every non-dependency package from source, and returns
// them in listing order. Dependency type information — the standard
// library included — is read from compiler export data produced by
// `go list -export`, so no source re-checking of the whole import
// graph happens and no network or module download is involved.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var targets []*goListPkg
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p goListPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			cp := p
			targets = append(targets, &cp)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, dir, exports)
	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", t.ImportPath, t.Error.Err)
		}
		pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, absFiles(t.Dir, t.GoFiles))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, filenames []string) (*Package, error) {
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: fset}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// The error callback keeps checking going; Check's returned error
	// duplicates the first collected one, so it is deliberately dropped.
	tpkg, _ := conf.Check(importPath, fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// exportImporter resolves imports from compiler export data. Paths
// missing from the preloaded table (fixture imports, for example) are
// resolved by invoking `go list -export` on demand and caching the
// result; the underlying gc importer then reads and caches the export
// files themselves.
type exportImporter struct {
	moduleRoot string
	gc         types.ImporterFrom

	mu      sync.Mutex
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, moduleRoot string, exports map[string]string) *exportImporter {
	e := &exportImporter{moduleRoot: moduleRoot, exports: exports}
	e.gc = importer.ForCompiler(fset, "gc", e.lookup).(types.ImporterFrom)
	return e
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.gc.ImportFrom(path, e.moduleRoot, 0)
}

func (e *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return e.gc.ImportFrom(path, dir, mode)
}

func (e *exportImporter) lookup(path string) (io.ReadCloser, error) {
	e.mu.Lock()
	file, ok := e.exports[path]
	e.mu.Unlock()
	if !ok {
		if err := e.fill(path); err != nil {
			return nil, err
		}
		e.mu.Lock()
		file, ok = e.exports[path]
		e.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
	}
	return os.Open(file)
}

// fill runs `go list -deps -export` for one missing import path and
// merges every discovered export file into the table.
func (e *exportImporter) fill(path string) error {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", path)
	cmd.Dir = e.moduleRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export %s: %v\n%s", path, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		var p goListPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("lint: decode go list output: %w", err)
		}
		if p.Export != "" {
			e.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}
