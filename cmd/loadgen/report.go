package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"altstacks/internal/obs"
)

// Output is `go test -bench` text so `loadgen | benchjson` reuses the
// existing JSON pipeline: env header lines, then one Benchmark line
// per operation with value/unit pairs. Everything that is not a
// result (progress, soak verdicts) goes to stderr.

func writeHeader(w io.Writer) {
	fmt.Fprintf(w, "goos: %s\n", runtime.GOOS)
	fmt.Fprintf(w, "goarch: %s\n", runtime.GOARCH)
	fmt.Fprintln(w, "pkg: altstacks/cmd/loadgen")
	if cpu := cpuModel(); cpu != "" {
		fmt.Fprintf(w, "cpu: %s\n", cpu)
	}
}

// cpuModel best-efforts the benchjson "cpu:" env line from
// /proc/cpuinfo; absent (non-Linux) it is simply omitted.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// stackShort is the path-safe stack tag used in benchmark names.
func stackShort(stack string) string {
	if strings.HasPrefix(stack, "WSRF") {
		return "wsrf"
	}
	return "wst"
}

// writeOpLines emits one Benchmark line per operation of a finished
// run: scheduled-arrival percentiles, the achieved completion rate,
// and the error/shed counts that qualify them.
func writeOpLines(w io.Writer, stack string, mixName string, rate float64, ops []*loadOp, res runResult) {
	achieved := float64(res.Completed) / res.Elapsed.Seconds()
	for _, op := range ops {
		n := op.rec.hist.Count()
		if n == 0 && op.rec.errs.Load() == 0 && op.rec.shed.Load() == 0 {
			continue
		}
		fmt.Fprintf(w,
			"BenchmarkLoad/%s/%s/%s/rate=%g %d %d p50-ns/op %d p99-ns/op %d p999-ns/op %d max-ns/op %.1f achieved-ops/s %d errors %d shed\n",
			stackShort(stack), mixName, op.name, rate, n,
			op.rec.quantile(0.50), op.rec.quantile(0.99), op.rec.quantile(0.999),
			op.rec.maxNs.Load(), achieved, op.rec.errs.Load(), op.rec.shed.Load())
	}
}

// snapshotStages captures all six obs pipeline-stage histograms.
func snapshotStages() map[string]obs.HistogramSnapshot {
	out := map[string]obs.HistogramSnapshot{}
	for name, h := range obs.Stages() {
		out[name] = h.Snapshot()
	}
	return out
}

// writeStageLines emits per-stage percentile lines from the stage
// histogram deltas across one run — where the server says its time
// went, against the client-observed totals of writeOpLines.
func writeStageLines(w io.Writer, stack, mixName string, rate float64, before, after map[string]obs.HistogramSnapshot) {
	names := make([]string, 0, len(after))
	for name := range after {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := after[name].Delta(before[name])
		if d.Count == 0 {
			continue
		}
		fmt.Fprintf(w,
			"BenchmarkLoadStage/%s/%s/%s/rate=%g %d %d p50-ns/op %d p99-ns/op\n",
			stackShort(stack), mixName, name, rate, d.Count,
			int64(d.Quantile(0.50)*1e9), int64(d.Quantile(0.99)*1e9))
	}
}
