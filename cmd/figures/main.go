// Command figures regenerates every figure in the paper's evaluation
// section (Figures 2, 3, 4, and 6) against the live reproduction and
// prints paper-vs-measured tables plus shape assertions.
//
// The reproduction target is each figure's *shape* — who wins, by
// roughly what factor, where the costs concentrate — not the absolute
// milliseconds of a 2005 dual-Opteron + Xindice testbed. The "paper≈"
// columns are approximate values read off the published bar charts.
//
// Usage:
//
//	figures [-fig all|2|3|4|6] [-n 30] [-warmup 3] [-checks]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/experiments"
	"altstacks/internal/metrics"
	"altstacks/internal/xmldb"
)

// paperHello holds the approximate published values (ms) for the
// hello-world figures, rows Get/Set/Create/Destroy/Notify, series
// [co-located WST, co-located WSRF, distributed WST, distributed WSRF].
var paperHello = map[int][5][4]float64{
	2: {{13, 10, 15, 12}, {17, 12, 19, 14}, {38, 30, 41, 33}, {15, 13, 17, 15}, {25, 35, 28, 38}},
	3: {{15, 12, 18, 14}, {19, 14, 22, 16}, {41, 33, 44, 36}, {17, 14, 19, 16}, {27, 37, 30, 40}},
	4: {{110, 100, 118, 108}, {118, 106, 126, 114}, {145, 130, 152, 138}, {115, 104, 122, 112}, {140, 150, 148, 158}},
}

var helloOps = [5]string{"Get", "Set", "Create", "Destroy", "Notify"}

// paperGrid holds the approximate Figure 6 values (ms), series
// [WS-Transfer/WS-Eventing, WSRF.NET].
var paperGrid = [6][2]float64{
	{420, 400},  // Get Available Resource
	{450, 430},  // Make Reservation
	{520, 500},  // Upload File
	{620, 1050}, // Instantiate Job
	{280, 270},  // Delete File
	{310, 0},    // Unreserve Resource (automatic under WSRF)
}

var gridOps = [6]string{
	"Get Available Resource", "Make Reservation", "Upload File",
	"Instantiate Job", "Delete File", "Unreserve Resource",
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 2, 3, 4, or 6")
	n := flag.Int("n", 30, "measured iterations per operation")
	warmup := flag.Int("warmup", 3, "unmeasured warmup iterations per operation")
	runChecks := flag.Bool("checks", true, "evaluate shape assertions against the paper")
	flag.Parse()

	run := func(f string) bool { return *fig == "all" || *fig == f }
	ok := true
	if run("2") {
		ok = helloFigure(2, container.SecurityNone, "no security", *n, *warmup, *runChecks) && ok
	}
	if run("3") {
		ok = helloFigure(3, container.SecurityTLS, "HTTPS", *n, *warmup, *runChecks) && ok
	}
	if run("4") {
		ok = helloFigure(4, container.SecuritySign, "X.509 signing", *n, *warmup, *runChecks) && ok
	}
	if run("6") {
		ok = gridFigure(*n, *warmup, *runChecks) && ok
	}
	if !ok {
		fmt.Println("\nSOME SHAPE CHECKS FAILED")
		os.Exit(1)
	}
}

// measureOps times every operation, keeping Prep outside the clock.
func measureOps(ops []experiments.Op, warmup, n int) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	for _, op := range ops {
		mean, err := measurePrepped(op, warmup, n)
		if err != nil {
			return nil, err
		}
		out[op.Name] = mean
	}
	return out, nil
}

// measurePrepped returns the mean time of Run over n iterations after
// warmup unmeasured ones, executing Prep outside the clock.
func measurePrepped(op experiments.Op, warmup, n int) (time.Duration, error) {
	iter := func() (time.Duration, error) {
		if op.Prep != nil {
			if err := op.Prep(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := op.Run()
		return time.Since(t0), err
	}
	for i := 0; i < warmup; i++ {
		if _, err := iter(); err != nil {
			return 0, fmt.Errorf("%s warmup: %w", op.Name, err)
		}
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		d, err := iter()
		if err != nil {
			return 0, fmt.Errorf("%s iteration %d: %w", op.Name, i, err)
		}
		total += d
	}
	return total / time.Duration(n), nil
}

func helloFigure(figNum int, sec container.SecurityMode, label string, n, warmup int, runChecks bool) bool {
	fmt.Printf("\n=== Figure %d: Testing \"Hello World\" with %s ===\n", figNum, label)
	// Series order matches the paper's legend.
	type series struct {
		name  string
		stack core.Stack
		dist  bool
	}
	all := []series{
		{"co-located WST/WSE", core.StackWST, false},
		{"co-located WSRF.NET", core.StackWSRF, false},
		{"distributed WST/WSE", core.StackWST, true},
		{"distributed WSRF.NET", core.StackWSRF, true},
	}
	results := make([]map[string]time.Duration, len(all))
	for i, s := range all {
		sc := pickScenario(sec, s.dist)
		h, err := experiments.NewHello(sc, s.stack, xmldb.XindiceProfile)
		if err != nil {
			fatal("figure %d: deploy %s: %v", figNum, s.name, err)
		}
		samples, err := measureOps(h.Ops, warmup, n)
		h.Close()
		if err != nil {
			fatal("figure %d: measure %s: %v", figNum, s.name, err)
		}
		results[i] = samples
	}

	tab := &metrics.Table{
		Title:   fmt.Sprintf("Figure %d — elapsed ms per request (measured | paper≈)", figNum),
		Caption: fmt.Sprintf("n=%d per op; database cost model: Xindice profile", n),
		Columns: []string{
			"co WST/WSE", "co WSRF", "dist WST/WSE", "dist WSRF",
			"paper co WST", "paper co WSRF", "paper dist WST", "paper dist WSRF",
		},
	}
	ref := paperHello[figNum]
	for row, opName := range helloOps {
		vals := make([]string, 0, 8)
		for i := range all {
			vals = append(vals, metrics.MS(results[i][opName]))
		}
		for i := 0; i < 4; i++ {
			vals = append(vals, fmt.Sprintf("%.0f", ref[row][i]))
		}
		tab.AddRow(opName, vals, "")
	}
	tab.Render(os.Stdout)

	if !runChecks {
		return true
	}
	mean := func(i int, op string) time.Duration { return results[i][op] }
	var checks []metrics.Check
	// Create is the slowest database op in both co-located series.
	for i := 0; i < 2; i++ {
		slowest := mean(i, "Create") >= mean(i, "Get") &&
			mean(i, "Create") >= mean(i, "Set") &&
			mean(i, "Create") >= mean(i, "Destroy")
		checks = append(checks, metrics.Check{
			Name: fmt.Sprintf("%s: Create slowest of the state ops", all[i].name),
			OK:   slowest,
			Got: fmt.Sprintf("create=%s get=%s set=%s destroy=%s",
				metrics.MS(mean(i, "Create")), metrics.MS(mean(i, "Get")),
				metrics.MS(mean(i, "Set")), metrics.MS(mean(i, "Destroy"))),
		})
	}
	// WSRF Set at most WS-Transfer Set (write-through cache vs
	// read-before-write), co-located.
	checks = append(checks, metrics.Check{
		Name: "co-located: WSRF Set ≤ WST Set (resource cache)",
		OK:   mean(1, "Set") <= mean(0, "Set"),
		Got:  fmt.Sprintf("wsrf=%s wst=%s", metrics.MS(mean(1, "Set")), metrics.MS(mean(0, "Set"))),
	})
	// Distributed ≥ co-located for every op and stack.
	distOK := true
	for _, op := range helloOps {
		if mean(2, op) < mean(0, op) || mean(3, op) < mean(1, op) {
			distOK = false
		}
	}
	checks = append(checks, metrics.Check{
		Name: "distributed ≥ co-located across ops",
		OK:   distOK,
		Got:  fmt.Sprintf("e.g. Get co/dist wst %s/%s", metrics.MS(mean(0, "Get")), metrics.MS(mean(2, "Get"))),
	})
	if figNum != 4 {
		// WS-Eventing notification faster than WS-Notification (TCP vs
		// HTTP); under X.509 the security cost compresses the gap, so the
		// check applies to Figures 2 and 3.
		checks = append(checks, metrics.Check{
			Name: "Notify: WS-Eventing (TCP) faster than WSN (HTTP)",
			OK:   mean(0, "Notify") < mean(1, "Notify"),
			Got:  fmt.Sprintf("wse=%s wsn=%s", metrics.MS(mean(0, "Notify")), metrics.MS(mean(1, "Notify"))),
		})
	}
	metrics.RenderChecks(os.Stdout, checks)
	return allOK(checks)
}

func gridFigure(n, warmup int, runChecks bool) bool {
	fmt.Printf("\n=== Figure 6: Grid-in-a-Box Performance Comparison (X.509-signed) ===\n")
	sc := core.Scenario{Index: 2, Sec: container.SecuritySign}
	stacks := []core.Stack{core.StackWST, core.StackWSRF}
	results := make([]map[string]time.Duration, 2)
	for i, stack := range stacks {
		dataRoot, err := os.MkdirTemp("", "gridbox-fig6-*")
		if err != nil {
			fatal("figure 6: %v", err)
		}
		defer os.RemoveAll(dataRoot)
		g, err := experiments.NewGrid(sc, stack, xmldb.XindiceProfile, dataRoot)
		if err != nil {
			fatal("figure 6: deploy %s: %v", stack, err)
		}
		samples, err := measureOps(g.Ops, warmup, n)
		g.Close()
		if err != nil {
			fatal("figure 6: measure %s: %v", stack, err)
		}
		results[i] = samples
	}
	tab := &metrics.Table{
		Title:   "Figure 6 — elapsed ms per operation (measured | paper≈)",
		Caption: fmt.Sprintf("n=%d per op; X.509 signing on; inter-service outcalls signed", n),
		Columns: []string{"WST/WSE", "WSRF.NET", "paper WST", "paper WSRF"},
	}
	for row, opName := range gridOps {
		note := ""
		if opName == "Unreserve Resource" {
			note = "WSRF: automatic via resource lifetime"
		}
		tab.AddRow(opName, []string{
			metrics.MS(results[0][opName]),
			metrics.MS(results[1][opName]),
			fmt.Sprintf("%.0f", paperGrid[row][0]),
			fmt.Sprintf("%.0f", paperGrid[row][1]),
		}, note)
	}
	tab.Render(os.Stdout)

	if !runChecks {
		return true
	}
	wst := func(op string) time.Duration { return results[0][op] }
	wsrf := func(op string) time.Duration { return results[1][op] }
	gap := func(op string) time.Duration {
		d := wsrf(op) - wst(op)
		if d < 0 {
			d = -d
		}
		return d
	}
	// "Comparable" = close in ratio, or separated by less than a couple
	// of backend accesses (small absolute gap): the paper's point is
	// that these rows are dominated by the same call count.
	comparable := func(op string) bool {
		a, b := float64(wst(op)), float64(wsrf(op))
		if a > b {
			a, b = b, a
		}
		return b <= a*2.0 || gap(op) < 5*time.Millisecond
	}
	instGap := wsrf("Instantiate Job") - wst("Instantiate Job")
	fileGap := gap("Delete File")
	if g := gap("Upload File"); g > fileGap {
		fileGap = g
	}
	checks := []metrics.Check{
		{
			Name: "Delete File comparable (single call each)",
			OK:   comparable("Delete File"),
			Got:  fmt.Sprintf("wst=%s wsrf=%s", metrics.MS(wst("Delete File")), metrics.MS(wsrf("Delete File"))),
		},
		{
			Name: "Upload File comparable (pair of calls each)",
			OK:   comparable("Upload File"),
			Got:  fmt.Sprintf("wst=%s wsrf=%s", metrics.MS(wst("Upload File")), metrics.MS(wsrf("Upload File"))),
		},
		{
			Name: "Instantiate Job: WSRF slower (more outcalls)",
			OK:   instGap > 0,
			Got:  fmt.Sprintf("wsrf=%s wst=%s", metrics.MS(wsrf("Instantiate Job")), metrics.MS(wst("Instantiate Job"))),
		},
		{
			// The outcall count dictates the cost structure: the
			// Instantiate gap (2 extra signed outcalls) must dwarf the
			// file-operation gaps (equal call counts).
			Name: "Instantiate gap ≫ file-op gaps (outcalls dominate)",
			OK:   instGap > 2*fileGap,
			Got:  fmt.Sprintf("instantiate gap=%s, max file gap=%s", metrics.MS(instGap), metrics.MS(fileGap)),
		},
		{
			Name: "Unreserve: WSRF ~0 (automatic), WST pays a real call",
			OK:   wsrf("Unreserve Resource") < time.Millisecond && wst("Unreserve Resource") > time.Millisecond,
			Got:  fmt.Sprintf("wsrf=%s wst=%s", metrics.MS(wsrf("Unreserve Resource")), metrics.MS(wst("Unreserve Resource"))),
		},
	}
	metrics.RenderChecks(os.Stdout, checks)
	return allOK(checks)
}

func pickScenario(sec container.SecurityMode, distributed bool) core.Scenario {
	for _, sc := range core.Scenarios() {
		if sc.Sec == sec && sc.Link.Distributed() == distributed {
			return sc
		}
	}
	panic("no such scenario")
}

func allOK(checks []metrics.Check) bool {
	for _, c := range checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	os.Exit(1)
}
