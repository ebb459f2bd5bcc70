// Package metrics renders the figure-regeneration output: per-figure
// paper-vs-measured tables in the unit the paper's evaluation uses
// ("all numbers are in milliseconds for a single request", §4.1.3)
// and the shape checks over them. cmd/figures does the timing.
package metrics

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// MS renders a duration as milliseconds with one decimal, the unit the
// paper's figures use.
func MS(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// Table is one figure's output: rows are operations, columns are the
// measured series (for example the four bars of Figures 2-4), with an
// optional paper-reference column set for shape comparison.
type Table struct {
	Title   string
	Caption string
	// Columns are the measured series names.
	Columns []string
	rows    []row
}

type row struct {
	label    string
	measured []string
	note     string
}

// AddRow appends a measured row; values must match Columns.
func (t *Table) AddRow(label string, values []string, note string) {
	t.rows = append(t.rows, row{label: label, measured: values, note: note})
}

// Render prints the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	if t.Caption != "" {
		fmt.Fprintf(w, "%s\n", t.Caption)
	}
	widths := make([]int, len(t.Columns)+2)
	widths[0] = len("operation")
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
		for i, v := range r.measured {
			if len(v) > widths[i+1] {
				widths[i+1] = len(v)
			}
		}
	}
	for i, c := range t.Columns {
		if len(c) > widths[i+1] {
			widths[i+1] = len(c)
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	header := append([]string{"operation"}, t.Columns...)
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		cells := append([]string{r.label}, r.measured...)
		if r.note != "" {
			cells = append(cells, "# "+r.note)
		}
		line(cells)
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Check is one shape assertion over measured samples (who wins, by
// what factor) — the reproduction target is the figure's shape, not
// its absolute 2005 numbers.
type Check struct {
	Name string
	OK   bool
	Got  string
}

// RenderChecks prints shape-assertion outcomes.
func RenderChecks(w io.Writer, checks []Check) {
	for _, c := range checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-60s %s\n", status, c.Name, c.Got)
	}
}
