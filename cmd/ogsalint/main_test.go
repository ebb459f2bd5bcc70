package main

import (
	"go/token"
	"path/filepath"
	"testing"

	"altstacks/internal/lint"
)

// TestJSONFindingPaths pins the -json inventory's spelling: file paths
// relative to the invocation directory and analyzer names without the
// ogsalint/ prefix, so inventories from different checkouts compare.
func TestJSONFindingPaths(t *testing.T) {
	cwd := t.TempDir()
	f := toJSONFinding(cwd, lint.Diagnostic{
		Pos:     token.Position{Filename: filepath.Join(cwd, "a.go"), Line: 10, Column: 3},
		Check:   "ogsalint/lockheld",
		Message: "held across Do",
	})
	if f.File != "a.go" {
		t.Fatalf("file not relativized: %q", f.File)
	}
	if f.Analyzer != "lockheld" {
		t.Fatalf("analyzer not stripped: %q", f.Analyzer)
	}
}
