package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"altstacks/internal/obs"
)

// Fleet-facing observability commands. -admin accepts a comma-
// separated list of admin URLs; `top` and `metrics -fleet` fetch every
// instance's registry snapshot (/metrics.json), merge them
// bucket-for-bucket, and show both the fleet totals and the
// per-instance drill-down.

// adminURLs splits the -admin flag into individual admin URLs.
func adminURLs(adminFlag string) []string {
	var out []string
	for _, u := range strings.Split(adminFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// scrapeAll fetches every instance's snapshot. Failed or rejected
// scrapes produce a nil exposition in the same position, so callers
// can show the hole.
func scrapeAll(urls []string) []*obs.Exposition {
	out := make([]*obs.Exposition, len(urls))
	for i, u := range urls {
		exp, err := obs.ScrapeInstance(u)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridctl: scrape %s: %v\n", u, err)
			continue
		}
		out[i] = exp
	}
	return out
}

// showFleetMetrics merges every instance's snapshot and prints the
// result in Prometheus text format — the client-side equivalent of the
// /federate endpoint, with the instance set chosen on the command line.
func showFleetMetrics(adminFlag string) error {
	urls := adminURLs(adminFlag)
	if len(urls) == 0 {
		return fmt.Errorf("-admin URL(s) required")
	}
	insts := scrapeAll(urls)
	live := 0
	for _, e := range insts {
		if e != nil {
			live++
		}
	}
	if live == 0 {
		return fmt.Errorf("no instance reachable")
	}
	fmt.Printf("# fleet: %d/%d instance(s)\n", live, len(urls))
	return obs.Merge(insts).Render(os.Stdout)
}

// counterValue reads one counter/gauge sample from an exposition.
func counterValue(e *obs.Exposition, name string) float64 {
	if s := e.Get(name, ""); s != nil {
		return s.Value
	}
	return 0
}

// stageHist returns the stage histogram, or nil.
func stageHist(e *obs.Exposition, stage string) *obs.HistogramSnapshot {
	if s := e.Get("ogsa_stage_duration_seconds", obs.Label("stage", stage)); s != nil {
		return s.Hist
	}
	return nil
}

// showTop renders the fleet overview: one row per instance plus the
// merged fleet row, then the fleet's per-stage latency breakdown with
// the most recent exemplar of each stage's slowest occupied bucket —
// the trace to pull when the p99 looks wrong.
func showTop(adminFlag string) error {
	urls := adminURLs(adminFlag)
	if len(urls) == 0 {
		return fmt.Errorf("-admin URL(s) required")
	}
	insts := scrapeAll(urls)

	fmt.Printf("%-28s %9s %8s %7s %10s %11s %11s\n",
		"INSTANCE", "REQUESTS", "FAULTS", "GOROUT", "HEAP", "DISPATCHp99", "DELIVERp99")
	var reachable []*obs.Exposition
	for i, e := range insts {
		if e == nil {
			fmt.Printf("%-28s %9s\n", instanceLabel(urls[i]), "DOWN")
			continue
		}
		reachable = append(reachable, e)
		printTopRow(instanceLabel(urls[i]), e)
	}
	if len(reachable) == 0 {
		return fmt.Errorf("no instance reachable")
	}
	merged := obs.Merge(reachable)
	if len(reachable) > 1 {
		printTopRow("FLEET", merged)
	}

	fmt.Printf("\n%-12s %9s %11s %11s  %s\n", "STAGE", "COUNT", "p50", "p99", "SLOWEST EXEMPLAR")
	for _, stage := range []string{"dispatch", "verify", "handler", "storage", "serialize", "deliver"} {
		h := stageHist(merged, stage)
		if h == nil || h.Count == 0 {
			continue
		}
		ex := slowestExemplar(h)
		exNote := "-"
		if ex != nil {
			exNote = fmt.Sprintf("trace=%s %v", ex.TraceID, time.Duration(ex.Value*float64(time.Second)).Round(time.Microsecond))
		}
		fmt.Printf("%-12s %9d %11v %11v  %s\n", stage, h.Count,
			time.Duration(h.Quantile(0.50)*float64(time.Second)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)*float64(time.Second)).Round(time.Microsecond),
			exNote)
	}
	return nil
}

func printTopRow(name string, e *obs.Exposition) {
	var dp99, vp99 time.Duration
	if h := stageHist(e, "dispatch"); h != nil {
		dp99 = time.Duration(h.Quantile(0.99) * float64(time.Second))
	}
	if h := stageHist(e, "deliver"); h != nil {
		vp99 = time.Duration(h.Quantile(0.99) * float64(time.Second))
	}
	fmt.Printf("%-28s %9.0f %8.0f %7.0f %9.1fM %11v %11v\n",
		name,
		counterValue(e, "ogsa_container_requests_total"),
		counterValue(e, "ogsa_container_faults_total"),
		counterValue(e, "ogsa_runtime_goroutines"),
		counterValue(e, "ogsa_runtime_heap_inuse_bytes")/1e6,
		dp99.Round(time.Microsecond), vp99.Round(time.Microsecond))
}

func instanceLabel(url string) string {
	name := strings.TrimRight(url, "/")
	name = strings.TrimPrefix(name, "http://")
	return strings.TrimPrefix(name, "https://")
}

// slowestExemplar returns the exemplar of the highest occupied bucket
// that retains one.
func slowestExemplar(h *obs.HistogramSnapshot) *obs.Exemplar {
	for i := len(h.Exemplars) - 1; i >= 0; i-- {
		if h.Exemplars[i] != nil {
			return h.Exemplars[i]
		}
	}
	return nil
}

// showFederate dumps the daemon's own /federate merge verbatim — what
// a Prometheus scraping just one instance of the fleet would see.
func showFederate(adminFlag string) error {
	urls := adminURLs(adminFlag)
	if len(urls) == 0 {
		return fmt.Errorf("-admin URL required")
	}
	data, err := fetchAdmin(urls[0], "/federate")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// showSLO prints each configured objective's burn-rate state.
func showSLO(adminFlag string) error {
	urls := adminURLs(adminFlag)
	if len(urls) == 0 {
		return fmt.Errorf("-admin URL required")
	}
	for i, u := range urls {
		if i > 0 {
			fmt.Println()
		}
		if len(urls) > 1 {
			fmt.Printf("%s:\n", instanceLabel(u))
		}
		data, err := fetchAdmin(u, "/slo")
		if err != nil {
			return err
		}
		var states []struct {
			Name      string    `json:"name"`
			Kind      string    `json:"kind"`
			Target    float64   `json:"target"`
			Good      int64     `json:"good"`
			Total     int64     `json:"total"`
			ShortBurn float64   `json:"short_burn"`
			LongBurn  float64   `json:"long_burn"`
			Firing    bool      `json:"firing"`
			Since     time.Time `json:"since"`
		}
		if err := json.Unmarshal(data, &states); err != nil {
			return fmt.Errorf("decode /slo: %w", err)
		}
		if len(states) == 0 {
			fmt.Println("(no objectives evaluated yet)")
			continue
		}
		fmt.Printf("%-20s %-13s %8s %12s %10s %10s  %s\n",
			"OBJECTIVE", "KIND", "TARGET", "GOOD/TOTAL", "BURN(5m)", "BURN(1h)", "STATE")
		for _, st := range states {
			state := "ok"
			if st.Firing {
				state = fmt.Sprintf("FIRING since %s", st.Since.Format("15:04:05"))
			}
			fmt.Printf("%-20s %-13s %7.3f%% %12s %10.2f %10.2f  %s\n",
				st.Name, st.Kind, st.Target*100,
				fmt.Sprintf("%d/%d", st.Good, st.Total),
				st.ShortBurn, st.LongBurn, state)
		}
	}
	return nil
}

// showDump prints the daemon's flight-recorder ring, oldest first.
func showDump(adminFlag string) error {
	urls := adminURLs(adminFlag)
	if len(urls) == 0 {
		return fmt.Errorf("-admin URL required")
	}
	data, err := fetchAdmin(urls[0], "/dump")
	if err != nil {
		return err
	}
	var events []obs.EventData
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("decode /dump: %w", err)
	}
	if len(events) == 0 {
		fmt.Println("(flight recorder empty)")
		return nil
	}
	for _, e := range events {
		fmt.Printf("%s %s", e.Time.Format("15:04:05.000"), e.Kind)
		if e.TraceID != "" {
			fmt.Printf(" trace=%s", e.TraceID)
		}
		for _, a := range e.Attrs {
			fmt.Printf(" %s=%s", a.K, a.V)
		}
		fmt.Println()
	}
	return nil
}
