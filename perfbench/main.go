// Command perfbench is the repository benchmark. Each workload deploys
// both software stacks — WSRF/WS-Notification ("wsrf") and
// WS-Transfer/WS-Eventing ("wst") — side by side in this one process,
// drives them closed loop in alternating windows, checks every result,
// and prints the end-to-end metrics. With -trace 1 it instead runs each
// stack twice, untraced and then with obs enabled and meters installed
// at the layer seams, and prints the per-layer ledger. See NOTES.md for
// the workloads and metrics.
//
//	go run . -workload hello-mix -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"altstacks/internal/certs"
	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/netlat"
	"altstacks/internal/wssec"
	"altstacks/internal/xmldb"
)

// stacks names the two software stacks every workload measures.
var stacks = []string{"wsrf", "wst"}

// setupRounds is how many times each stack is deployed per run; setup_s
// reports the median, and the last deployment is the one measured.
const setupRounds = 3

// heapOps is how many operations each caller runs while heap_peak_mb
// is measured, after setup and before the timed windows.
const heapOps = 25

// env is what every deployment in the process shares.
type env struct {
	seed int64
	// fix holds the X.509 material, generated once per process before
	// any setup clock starts; user2 is the second grid user.
	fix   *core.Fixture
	user2 *certs.Identity
	// workdir receives file-backed databases and grid data directories.
	workdir string
}

// rng returns a generator for one stream of the run's inputs.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(e.seed), stream))
}

// deployment is one running stack under one workload.
type deployment struct {
	callers []caller
	// warmup is how many operations each caller runs before measuring.
	warmup int
	// check runs after measuring and returns how many completed
	// operations failed a deferred correctness check.
	check func() int
	close func()

	// Layer handles read by the traced run. The meters are installed
	// only in a traced deployment; the rest are the program's own
	// counters, read in both.
	wire      []*exchangeMeter
	outcall   *exchangeMeter
	backend   *backendMeter
	db        *xmldb.DB
	verifiers []*wssec.Verifier
	delivery  func() deliveryCounts
	// duplicates counts notifications received more than once.
	duplicates func() int64
	// publishCell names the figure cell whose operations trigger a
	// publish; "" means every operation publishes.
	publishCell string
	// deliveriesMetered says the wire meters see the deliveries
	// themselves (the publisher's own client), so delivery time is
	// already inside the metered exchanges.
	deliveriesMetered bool
	// probe runs one serial operation with outcalls attributed to figure
	// cells and returns the per-cell counts (grid-workflow only).
	probe func() (map[string]int, error)
}

// deliveryCounts unifies wsn and wse delivery statistics.
type deliveryCounts struct {
	attempts, retries, deliveries, evictions int64
}

type workload struct {
	name   string
	deploy func(e *env, stack string, traced bool) (*deployment, error)
}

// workloads, and why each was chosen, are described in NOTES.md.
var workloads = []workload{
	{"hello-mix", deployHello},
	{"pubsub-fanout", deployPubSub},
	{"grid-workflow", deployGrid},
}

func main() {
	name := flag.String("workload", "", "workload to run: hello-mix, pubsub-fanout, grid-workflow, or all")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run, split across the stacks")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	workdir := flag.String("workdir", os.TempDir(), "directory for file-backed storage")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(selected, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print()
}

func run(selected []workload, seed int64, budget time.Duration, traced bool, workdir string) (*result, error) {
	t0 := time.Now()
	fix, err := core.NewFixture(container.SecuritySign, netlat.CoLocated)
	if err != nil {
		return nil, err
	}
	user2, err := fix.CA.Issue("grid-client-2")
	if err != nil {
		return nil, err
	}
	keygen := time.Since(t0)
	dir, err := os.MkdirTemp(workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, fix: fix, user2: user2, workdir: dir}

	out := newResult()
	for _, w := range selected {
		r := newResult()
		if traced {
			err = r.runTraced(e, w, budget)
			r.add("certs.keygen_s", keygen.Seconds(), "s")
		} else {
			err = r.runEndToEnd(e, w, budget)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if len(selected) == 1 {
			return r, nil
		}
		out.merge(w.name+".", r)
	}
	return out, nil
}

// start deploys a stack and runs its warm-up operations.
func start(e *env, w workload, stack string, traced bool) (*deployment, error) {
	d, err := w.deploy(e, stack, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: deploy: %w", stack, err)
	}
	smp := newSamples()
	for _, s := range d.callers {
		for i := 0; i < d.warmup; i++ {
			if err := s.step(time.Now(), smp); err != nil {
				d.close()
				return nil, fmt.Errorf("%s: warm-up: %w", stack, err)
			}
		}
	}
	return d, nil
}

// measure drives a deployment and applies its deferred checks.
func measure(d *deployment, dur time.Duration) window {
	w := drive(d.callers, dur)
	if d.check != nil {
		bad := d.check()
		w.ok -= bad
		w.failed += bad
	}
	return w
}

// roundLen is the length of one measured window in the end-to-end run.
// The stacks take turns, one window each per round, and each metric is
// the median over a stack's windows, so a slow spell on the host lands
// in a few windows of both stacks instead of in one stack's figure.
// After each round the host's speed is measured (calib.go), and the
// round's windows are scaled by it.
const roundLen = time.Second

func (r *result) runEndToEnd(e *env, w workload, budget time.Duration) error {
	setup := 0.0
	deps := map[string]*deployment{}
	defer func() {
		for _, d := range deps {
			d.close()
		}
	}()
	for _, stack := range stacks {
		var times []float64
		for i := 0; i < setupRounds; i++ {
			if d := deps[stack]; d != nil {
				d.close()
			}
			speed, err := hostSpeed()
			if err != nil {
				delete(deps, stack)
				return err
			}
			t0 := time.Now()
			d, err := start(e, w, stack, false)
			if err != nil {
				delete(deps, stack)
				return err
			}
			deps[stack] = d
			times = append(times, time.Since(t0).Seconds()*speed)
		}
		setup += median(times)
	}

	// The heap is measured over a fixed amount of work, not a fixed
	// time: the stacks' document caches fill with every operation, so a
	// peak over timed windows would grow with the host's speed.
	t0 := time.Now()
	var heap uint64
	for _, stack := range stacks {
		win := driveOps(deps[stack].callers, heapOps)
		r.tally(win)
		heap = max(heap, win.heapPeak)
	}
	budget -= time.Since(t0)

	rounds := max(1, int(budget/(roundLen*time.Duration(len(stacks))+calibLen)))
	wins := map[string][]window{}
	var speeds []float64
	for i := 0; i < rounds; i++ {
		order := stacks
		if i%2 == 1 {
			order = []string{stacks[1], stacks[0]}
		}
		for _, stack := range order {
			wins[stack] = append(wins[stack], drive(deps[stack].callers, roundLen))
		}
		speed, err := hostSpeed()
		if err != nil {
			return err
		}
		speeds = append(speeds, speed)
	}

	// Each window reads as it would on the nominal host: its times are
	// multiplied by its round's speed and its rate divided by it.
	var cpu []float64
	for _, stack := range stacks {
		total := window{smp: newSamples()}
		var rate, p50, p90, d50, d90 []float64
		for i, win := range wins[stack] {
			s := speeds[i]
			total.ok += win.ok
			total.failed += win.failed
			if total.firstErr == nil {
				total.firstErr = win.firstErr
			}
			if win.ok > 0 {
				cpu = append(cpu, ms(win.cpu)*s/float64(win.ok))
			}
			rate = append(rate, win.opsPerSec()/s)
			p50 = append(p50, quantile(win.lat, 0.5)*s)
			p90 = append(p90, quantile(win.lat, 0.9)*s)
			d50 = append(d50, quantile(win.smp.delivery, 0.5)*s)
			d90 = append(d90, quantile(win.smp.delivery, 0.9)*s)
		}
		if d := deps[stack]; d.check != nil {
			bad := d.check()
			total.ok -= bad
			total.failed += bad
		}
		r.tally(total)
		if total.ok <= 0 {
			return fmt.Errorf("%s: no operation completed: %v", stack, total.firstErr)
		}
		r.add(stack+".ops_per_s", median(rate), "1/s")
		r.add(stack+".latency_p50_ms", median(p50), "ms")
		r.add(stack+".latency_p90_ms", median(p90), "ms")
		r.add(stack+".delivery_p50_ms", median(d50), "ms")
		r.add(stack+".delivery_p90_ms", median(d90), "ms")
		r.add(stack+".success_ratio", float64(total.ok)/float64(total.attempted()), "ratio")
	}
	r.add("setup_s", setup, "s")
	r.add("cpu_ms_per_op", median(cpu), "ms")
	r.add("heap_peak_mb", float64(heap)/1e6, "MB")
	r.cells = append(r.cells, fmt.Sprintf("host.speed %.4f (median of %d rounds; a raw time is the reported time / speed)", median(speeds), len(speeds)))
	return nil
}

// result accumulates one run's verdict and metrics.
type result struct {
	correct           bool
	attempted, failed int
	names             []string
	metrics           map[string]metric
	// cells are the per-operation figure cells, printed for reading
	// the figures but not part of the JSON ledger (see NOTES.md).
	cells []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{correct: true, metrics: map[string]metric{}} }

func (r *result) add(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{v, unit}
}

func (r *result) tally(w window) {
	r.attempted += w.attempted()
	r.failed += w.failed
	if w.failed > 0 {
		r.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", w.failed, w.attempted(), w.firstErr)
	}
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (r *result) merge(prefix string, o *result) {
	r.correct = r.correct && o.correct
	r.attempted += o.attempted
	r.failed += o.failed
	for _, n := range o.names {
		r.add(prefix+n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	for _, c := range o.cells {
		r.cells = append(r.cells, prefix+c)
	}
}

// cell records a figure cell's median for the human-readable table.
func (r *result) cell(stack, name string, xs []float64) {
	if len(xs) > 0 {
		r.cells = append(r.cells, fmt.Sprintf("%s.op.%s_p50_ms %.4f ms (n=%d)", stack, name, median(xs), len(xs)))
	}
}

func (r *result) print() {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("%-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	sort.Strings(r.cells)
	for _, c := range r.cells {
		fmt.Println(c)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
