// ogsalint is the project's static-analysis driver: it runs the eight
// internal/lint analyzers (poolescape, lockheld, ctxflow, soapfault,
// rawxml, goroutinelife, timerleak, spanleak) over package patterns,
// printing findings in the familiar file:line:col form. It exits 0
// when the tree is clean and 1 when anything fires, so `make lint`
// gates CI:
//
//	ogsalint ./...
//
// The whole load is indexed into one interprocedural Program, so
// summaries see through helpers across package boundaries within the
// module. A finding is accepted only in place, with a reasoned
// `//lint:ignore ogsalint/<check> reason` on its line or the line
// above.
//
// Flags:
//
//	-json  emit findings as a JSON array on stdout, including
//	       suppressed findings (flagged), as a full inventory
//	-doc   print each analyzer's invariant and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"altstacks/internal/lint"
)

func main() {
	printDoc := flag.Bool("doc", false, "print each analyzer's invariant and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *printDoc {
		for _, a := range lint.Analyzers() {
			fmt.Printf("ogsalint/%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ogsalint [-json] packages...")
		os.Exit(2)
	}
	os.Exit(run(flag.Args(), *jsonOut))
}

// jsonFinding is one finding in -json output. File paths are relative
// to the invocation directory so inventories from checkouts at
// different absolute paths compare equal.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func toJSONFinding(cwd string, d lint.Diagnostic) jsonFinding {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return jsonFinding{
		File:       file,
		Line:       d.Pos.Line,
		Col:        d.Pos.Column,
		Analyzer:   strings.TrimPrefix(d.Check, "ogsalint/"),
		Message:    d.Message,
		Suppressed: d.Suppressed,
	}
}

func run(patterns []string, jsonOut bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogsalint:", err)
		return 2
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogsalint:", err)
		return 2
	}
	exit := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "ogsalint: %s: type error: %v\n", pkg.ImportPath, terr)
			exit = 2
		}
	}

	// One Program over the whole load: summaries resolve across
	// package boundaries, so a helper in internal/xmlutil is seen
	// through from internal/wsn.
	prog := lint.NewProgram(pkgs)
	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := prog.RunPackage(pkg, lint.Analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, "ogsalint:", err)
			return 2
		}
		all = append(all, diags...)
	}

	gating := lint.FilterSuppressed(all)
	if len(gating) > 0 && exit == 0 {
		exit = 1
	}

	if jsonOut {
		findings := make([]jsonFinding, 0, len(all))
		for _, d := range all {
			findings = append(findings, toJSONFinding(cwd, d))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "ogsalint:", err)
			return 2
		}
		return exit
	}
	for _, d := range gating {
		fmt.Fprintln(os.Stderr, d)
	}
	return exit
}
