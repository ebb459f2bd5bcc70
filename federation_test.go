// Fleet federation end to end, multi-process: two counterd daemons
// are launched as real OS processes, traffic is driven at
// both, and the fleet view is asserted from both sides — client-side
// (fetch every instance's /metrics.json snapshot and merge) and
// server-side (the /federate endpoint of the peer-configured
// instance). The merged histograms must equal the per-instance sums
// bucket for bucket, and the admin plane (/slo, /dump) must serve on
// every instance.
package altstacks_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/counter"
	"altstacks/internal/obs"
	"altstacks/internal/wsa"
)

// daemon is one launched counterd process.
type daemon struct {
	cmd   *exec.Cmd
	base  string // counter service base URL (".../counter" is the service)
	admin string // admin endpoint URL
}

// startCounterd launches the built counterd binary and parses its
// startup banner for the service and admin URLs.
func startCounterd(t *testing.T, bin string, peers string) *daemon {
	t.Helper()
	args := []string{"-admin", "127.0.0.1:0"}
	if peers != "" {
		args = append(args, "-peers", peers)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(15 * time.Second)
	for d.base == "" || d.admin == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("counterd exited before printing its endpoints")
			}
			if _, rest, found := strings.Cut(line, "counter service:"); found {
				d.base = strings.TrimSuffix(strings.TrimSpace(rest), "/counter")
			}
			if _, rest, found := strings.Cut(line, "admin endpoint:"); found {
				d.admin = strings.TrimSpace(rest)
			}
		case <-deadline:
			t.Fatalf("counterd startup banner incomplete: base=%q admin=%q", d.base, d.admin)
		}
	}
	// Drain the rest so the child never blocks on a full pipe.
	go func() {
		for range lines {
		}
	}()
	return d
}

func TestFleetFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	bin := filepath.Join(t.TempDir(), "counterd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/counterd").CombinedOutput(); err != nil {
		t.Fatalf("build counterd: %v\n%s", err, out)
	}

	d1 := startCounterd(t, bin, "")
	d2 := startCounterd(t, bin, d1.admin) // d2 federates d1 into its /federate

	// Drive uneven traffic at both instances so the fleet numbers are
	// visibly the sum of distinct per-instance numbers.
	ops := map[*daemon]int{d1: 6, d2: 3}
	client := container.NewClient(container.ClientConfig{})
	for d, n := range ops {
		cl := &counter.WSRFClient{C: client, Service: wsa.NewEPR(d.base + "/counter")}
		epr, err := cl.Create(counter.Representation(0))
		if err != nil {
			t.Fatalf("create on %s: %v", d.base, err)
		}
		for i := 0; i < n; i++ {
			if err := cl.Set(epr, counter.Representation(i)); err != nil {
				t.Fatalf("set on %s: %v", d.base, err)
			}
		}
	}

	e1, err := obs.ScrapeInstance(d1.admin)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := obs.ScrapeInstance(d2.admin)
	if err != nil {
		t.Fatal(err)
	}
	merged := obs.Merge([]*obs.Exposition{e1, e2})

	// Fleet counters are the per-instance sums.
	reqs := func(e *obs.Exposition) float64 {
		s := e.Get("ogsa_container_requests_total", "")
		if s == nil {
			t.Fatalf("instance %s exposes no request counter", e.Instance)
		}
		return s.Value
	}
	if got, want := reqs(merged), reqs(e1)+reqs(e2); got != want {
		t.Fatalf("merged requests = %v, want %v (= %v + %v)", got, want, reqs(e1), reqs(e2))
	}
	if reqs(e1) == 0 || reqs(e2) == 0 {
		t.Fatalf("an instance saw no traffic: %v / %v", reqs(e1), reqs(e2))
	}

	// Fleet histograms add bucket for bucket.
	hist := func(e *obs.Exposition) *obs.HistogramSnapshot {
		s := e.Get("ogsa_stage_duration_seconds", obs.Label("stage", "dispatch"))
		if s == nil || s.Hist == nil {
			t.Fatalf("instance %s exposes no dispatch histogram", e.Instance)
		}
		return s.Hist
	}
	h1, h2, hm := hist(e1), hist(e2), hist(merged)
	if hm.Count != h1.Count+h2.Count {
		t.Fatalf("merged dispatch count %d != %d + %d", hm.Count, h1.Count, h2.Count)
	}
	for i := range hm.Counts {
		if hm.Counts[i] != h1.Counts[i]+h2.Counts[i] {
			t.Fatalf("bucket %d: merged %d != %d + %d", i, hm.Counts[i], h1.Counts[i], h2.Counts[i])
		}
	}

	// The daemons trace their requests, so the fleet histogram carries
	// at least one trace-linked exemplar.
	foundExemplar := false
	for _, ex := range hm.Exemplars {
		if ex != nil && ex.TraceID != "" {
			foundExemplar = true
		}
	}
	if !foundExemplar {
		t.Fatal("fleet dispatch histogram carries no exemplar")
	}

	// Server-side federation: d2's /federate merges d1 in and must agree
	// line for line with the client-side merge rendered by the same
	// Render. Traffic is quiesced, so every sample is stable except the
	// ones that move with time on their own: uptime, the Go runtime
	// readings, and the SLO engine's periodic evaluation count.
	fedBody, err := fetchURL(d2.admin + "/federate")
	if err != nil {
		t.Fatal(err)
	}
	var clientSide bytes.Buffer
	if err := merged.Render(&clientSide); err != nil {
		t.Fatal(err)
	}
	stableSamples := func(text string) []string {
		var out []string
		for _, line := range strings.Split(text, "\n") {
			if line == "" || strings.HasPrefix(line, "#") ||
				strings.HasPrefix(line, "ogsa_uptime_seconds") || strings.HasPrefix(line, "ogsa_runtime_") ||
				strings.HasPrefix(line, "ogsa_slo_evaluations_total") {
				continue
			}
			out = append(out, line)
		}
		slices.Sort(out)
		return out
	}
	fedLines, wantLines := stableSamples(string(fedBody)), stableSamples(clientSide.String())
	if !slices.Equal(fedLines, wantLines) {
		t.Fatalf("/federate disagrees with the client-side merge:\n--- /federate ---\n%s\n--- client-side ---\n%s",
			strings.Join(fedLines, "\n"), strings.Join(wantLines, "\n"))
	}
	if !strings.Contains(string(fedBody), "# federate: 2 instance(s)\n") {
		t.Fatalf("/federate did not merge both instances:\n%s", fedBody)
	}

	// The rest of the admin plane serves on both instances.
	for _, d := range []*daemon{d1, d2} {
		sloBody, err := fetchURL(d.admin + "/slo")
		if err != nil {
			t.Fatal(err)
		}
		var states []map[string]any
		if err := json.Unmarshal(sloBody, &states); err != nil {
			t.Fatalf("/slo on %s: %v\n%s", d.admin, err, sloBody)
		}
		dumpBody, err := fetchURL(d.admin + "/dump")
		if err != nil {
			t.Fatal(err)
		}
		var events []obs.EventData
		if err := json.Unmarshal(dumpBody, &events); err != nil {
			t.Fatalf("/dump on %s: %v", d.admin, err)
		}
	}
}

func fetchURL(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
