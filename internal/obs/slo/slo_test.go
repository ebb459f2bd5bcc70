package slo

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"altstacks/internal/obs"
)

// fakeFeed drives an engine deterministically: a hand-cranked clock
// and a mutable good/total source.
type fakeFeed struct {
	now         time.Time
	good, total int64
}

func (f *fakeFeed) source() (int64, int64) { return f.good, f.total }

// step advances the clock one evaluation interval, accrues events, and
// runs a synchronous evaluation pass.
func (f *fakeFeed) step(e *Engine, good, bad int64) []State {
	f.now = f.now.Add(10 * time.Second)
	f.good += good
	f.total += good + bad
	return e.Evaluate()
}

func newTestEngine(f *fakeFeed) *Engine {
	return New(Config{
		Objectives:  []Objective{SourceObjective("avail", "availability", 0.99, f.source)},
		ShortWindow: 30 * time.Second,
		LongWindow:  100 * time.Second,
		Burn:        5,
		Now:         func() time.Time { return f.now },
		DumpTo:      io.Discard,
	})
}

// TestBurnRateFiresAndResolves drives the multi-window state machine
// with a fake clock: healthy traffic stays quiet, a sustained 50% bad
// phase fires (both windows over threshold), and the alert resolves as
// soon as the short window clears — the long window alone cannot hold
// it firing.
func TestBurnRateFiresAndResolves(t *testing.T) {
	f := &fakeFeed{now: time.Unix(1000, 0)}
	e := newTestEngine(f)
	var fired, resolved []State
	e.cfg.OnFire = func(s State) { fired = append(fired, s) }
	e.cfg.OnResolve = func(s State) { resolved = append(resolved, s) }

	for i := 0; i < 5; i++ {
		sts := f.step(e, 100, 0)
		if sts[0].Firing || sts[0].ShortBurn != 0 {
			t.Fatalf("healthy traffic alerted: %+v", sts[0])
		}
	}

	sts := f.step(e, 50, 50) // 50% bad: burn 50x against a 1% budget
	if !sts[0].Firing {
		t.Fatalf("sustained badness did not fire: %+v", sts[0])
	}
	if len(fired) != 1 || fired[0].Name != "avail" {
		t.Fatalf("OnFire transitions = %+v, want exactly one", fired)
	}
	if !e.Firing() {
		t.Fatal("Firing() false while an alert fires")
	}
	if sts[0].ShortBurn < 5 || sts[0].LongBurn < 5 {
		t.Fatalf("fired below threshold: short=%v long=%v", sts[0].ShortBurn, sts[0].LongBurn)
	}

	// Healthy again: after the short window (30s = 3 steps) slides past
	// the bad sample, the alert must resolve even though the long
	// window still remembers the breach.
	var cleared *State
	for i := 0; i < 4; i++ {
		sts = f.step(e, 100, 0)
		if !sts[0].Firing {
			cleared = &sts[0]
			break
		}
	}
	if cleared == nil {
		t.Fatalf("alert never resolved after traffic healed: %+v", sts[0])
	}
	if len(resolved) != 1 {
		t.Fatalf("OnResolve transitions = %+v, want exactly one", resolved)
	}
	if cleared.LongBurn <= 0 {
		t.Fatalf("long window forgot the breach too fast: %+v", cleared)
	}
	if e.Firing() {
		t.Fatal("Firing() true after resolve")
	}
}

// TestColdStartConservative: with history younger than both windows,
// the baseline falls back to the oldest sample, so a breach right
// after process start is judged (conservatively) rather than invisible
// until a full window of history exists.
func TestColdStartConservative(t *testing.T) {
	f := &fakeFeed{now: time.Unix(2000, 0)}
	e := newTestEngine(f)
	f.step(e, 100, 0)
	sts := f.step(e, 0, 100) // second-ever sample is all bad
	if sts[0].ShortBurn <= 0 || sts[0].LongBurn <= 0 {
		t.Fatalf("cold engine blind to a breach: %+v", sts[0])
	}
	if !sts[0].Firing {
		t.Fatalf("100%% bad at cold start did not fire: %+v", sts[0])
	}
}

// latencyFixture is registered once per process: obs.Default panics
// when a second pass of go test -count=N registers the name again.
var latencyFixture = obs.NewHistogram("test_slo_latency_seconds", "", "latency objective fixture")

// TestLatencyObjective pins the histogram reduction: good events are
// those in buckets bounded at or under the threshold.
func TestLatencyObjective(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	h := latencyFixture
	o := Latency("lat", 0.99, 0.25, h)
	good0, total0 := o.source()
	h.Observe(100 * time.Millisecond) // <= 0.25: good
	h.Observe(200 * time.Millisecond) // <= 0.25: good
	h.Observe(2 * time.Second)        // bad
	good, total := o.source()
	if good-good0 != 2 || total-total0 != 3 {
		t.Fatalf("latency reduction good/total = %d/%d, want 2/3", good-good0, total-total0)
	}
}

// TestHandlerJSON: the /slo body decodes back into the engine's state.
func TestHandlerJSON(t *testing.T) {
	f := &fakeFeed{now: time.Unix(3000, 0)}
	e := newTestEngine(f)
	f.step(e, 100, 0)
	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	var sts []State
	if err := json.Unmarshal(rr.Body.Bytes(), &sts); err != nil {
		t.Fatalf("decode /slo: %v\n%s", err, rr.Body.String())
	}
	if len(sts) != 1 || sts[0].Name != "avail" || sts[0].Total != 100 {
		t.Fatalf("handler state wrong: %+v", sts)
	}
}

// TestStartStopIdempotent: Stop twice, after a running Start, must not
// hang or panic.
func TestStartStopIdempotent(t *testing.T) {
	f := &fakeFeed{now: time.Unix(4000, 0)}
	e := New(Config{
		Objectives: []Objective{SourceObjective("x", "availability", 0.999, f.source)},
		Interval:   time.Millisecond,
		DumpTo:     io.Discard,
	})
	e.Start()
	time.Sleep(10 * time.Millisecond)
	e.Stop()
	e.Stop()
}

// The ServeAdmin fixture counters are registered once per process, like
// latencyFixture.
var (
	adminRequests = obs.NewCounter("test_slo_admin_requests_total", "", "ServeAdmin fixture")
	adminFaults   = obs.NewCounter("test_slo_admin_faults_total", "", "ServeAdmin fixture")
)

// TestServeAdmin: the daemons' admin plane serves the default
// objectives at /slo beside the obs admin mux, until stopped.
func TestServeAdmin(t *testing.T) {
	url, stop, err := ServeAdmin("127.0.0.1:0", "", adminRequests, adminFaults)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.HandleAdmin("/slo", nil)
	resp, err := http.Get(url + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var sts []State
	err = json.NewDecoder(resp.Body).Decode(&sts)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /slo: %v", err)
	}
	if len(sts) != 3 || sts[0].Name != "availability" {
		t.Fatalf("/slo = %+v, want the three default objectives", sts)
	}
	if resp, err := http.Get(url + "/metrics"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	stop()
	if resp, err := http.Get(url + "/slo"); err == nil {
		resp.Body.Close()
		t.Fatal("admin endpoint still serving after stop")
	}
}
