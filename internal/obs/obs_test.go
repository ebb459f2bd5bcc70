package obs

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withEnabled runs fn with the layer enabled and restores the no-op
// default (and an empty trace ring) afterwards.
func withEnabled(t *testing.T, fn func()) {
	t.Helper()
	Enable()
	defer func() {
		Disable()
		ResetTraces()
	}()
	fn()
}

// fixtures registers test metrics in a fresh Registry: NewCounter and
// its kin register fixed names into Default, whose duplicate check
// panics on the second pass of go test -count=N.
func fixtures(ms ...metric) *Registry {
	r := &Registry{}
	for _, m := range ms {
		r.register(m)
	}
	return r
}

func TestDisabledIsInert(t *testing.T) {
	Disable()
	ResetTraces()
	c := &Counter{desc: desc{"test_inert_total", "", "inert counter", "counter"}}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter advanced to %d", got)
	}
	g := &Gauge{desc: desc{"test_inert_gauge", "", "inert gauge", "gauge"}}
	g.Set(7)
	g.Add(3)
	if got := g.Value(); got != 0 {
		t.Fatalf("disabled gauge moved to %d", got)
	}
	h := fixtureHist("test_inert_seconds", "inert histogram")
	if !Start().IsZero() {
		t.Fatal("Start returned a live time while disabled")
	}
	h.ObserveSince(Start())
	h.Observe(time.Millisecond)
	if got := h.Count(); got != 0 {
		t.Fatalf("disabled histogram observed %d samples", got)
	}
	ctx, span := StartSpan(context.Background(), "root")
	if span != nil {
		t.Fatal("StartSpan returned a live span while disabled")
	}
	// All span methods must be nil-safe.
	span.SetMessageID("m")
	span.SetRelatesTo("r")
	span.SetAttr("k", "v")
	span.Annotate("e")
	span.Fail(context.Canceled)
	span.End()
	if ChildSpan(ctx, "leaf") != nil {
		t.Fatal("ChildSpan returned a live span while disabled")
	}
	if got := len(Traces()); got != 0 {
		t.Fatalf("disabled mode recorded %d traces", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	withEnabled(t, func() {
		c := &Counter{desc: desc{"test_expo_ops_total", `op="create"`, "ops by kind", "counter"}}
		c2 := &Counter{desc: desc{"test_expo_ops_total", `op="delete"`, "ops by kind", "counter"}}
		c.Add(3)
		c2.Inc()
		h := fixtureHist("test_expo_latency_seconds", "latency")
		h.Observe(200 * time.Microsecond) // bucket le=0.00025
		h.Observe(30 * time.Millisecond)  // bucket le=0.05
		h.Observe(20 * time.Second)       // +Inf only
		big := &Counter{desc: desc{"test_expo_big_total", "", "a count past 1e6", "counter"}}
		big.Add(12345678)
		r := fixtures(c, c2, h, big)

		// The fixtures render from their own registry, the built-in
		// families from Default.
		var sb strings.Builder
		for _, reg := range []*Registry{r, Default} {
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
		}
		out := sb.String()
		// /federate renders a merge through the same writer.
		var fed strings.Builder
		if err := Merge([]*Exposition{r.Snapshot()}).Render(&fed); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(fed.String(), "test_expo_big_total 12345678\n") {
			t.Errorf("merged render writes a large count in float form:\n%s", fed.String())
		}
		for _, want := range []string{
			"# HELP test_expo_ops_total ops by kind\n",
			"# TYPE test_expo_ops_total counter\n",
			`test_expo_ops_total{op="create"} 3` + "\n",
			`test_expo_ops_total{op="delete"} 1` + "\n",
			"# TYPE test_expo_latency_seconds histogram\n",
			`test_expo_latency_seconds_bucket{le="0.0001"} 0` + "\n",
			`test_expo_latency_seconds_bucket{le="0.00025"} 1` + "\n",
			`test_expo_latency_seconds_bucket{le="0.05"} 2` + "\n",
			`test_expo_latency_seconds_bucket{le="+Inf"} 3` + "\n",
			"test_expo_latency_seconds_count 3\n",
			// The six container stage histograms must always be present.
			`ogsa_stage_duration_seconds_bucket{stage="dispatch",le="+Inf"}`,
			`ogsa_stage_duration_seconds_bucket{stage="verify",le="+Inf"}`,
			`ogsa_stage_duration_seconds_bucket{stage="handler",le="+Inf"}`,
			`ogsa_stage_duration_seconds_bucket{stage="storage",le="+Inf"}`,
			`ogsa_stage_duration_seconds_bucket{stage="serialize",le="+Inf"}`,
			`ogsa_stage_duration_seconds_bucket{stage="deliver",le="+Inf"}`,
			"ogsa_runtime_goroutines ",
			"ogsa_uptime_seconds ",
			"test_expo_big_total 12345678\n",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
			}
		}
		// HELP/TYPE emitted once per family, not per label set.
		if n := strings.Count(out, "# TYPE test_expo_ops_total counter"); n != 1 {
			t.Errorf("TYPE line for family appeared %d times, want 1", n)
		}
	})
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test_dup_total", "", "first")
	NewCounter("test_dup_total", "", "second")
}

func TestSpanTreeAndRing(t *testing.T) {
	withEnabled(t, func() {
		ctx, root := StartSpan(context.Background(), "container.dispatch")
		root.SetMessageID("urn:msg:1")
		hctx, handler := StartSpan(ctx, "handler")
		leaf := ChildSpan(hctx, "xmldb.update")
		leaf.SetAttr("collection", "counters")
		leaf.End()
		handler.End()
		root.End()

		traces := Traces()
		if len(traces) != 1 {
			t.Fatalf("got %d traces, want 1", len(traces))
		}
		tr := traces[0]
		if len(tr.Spans) != 3 {
			t.Fatalf("got %d spans, want 3: %+v", len(tr.Spans), tr.Spans)
		}
		r := tr.Root()
		if r == nil || r.Name != "container.dispatch" || r.MessageID != "urn:msg:1" {
			t.Fatalf("bad root span: %+v", r)
		}
		h := tr.Span("handler")
		if h == nil || h.Parent != r.ID {
			t.Fatalf("handler span not parented under root: %+v", h)
		}
		l := tr.Span("xmldb.update")
		if l == nil || l.Parent != h.ID {
			t.Fatalf("leaf span not parented under handler: %+v", l)
		}
		if len(l.Attrs) != 1 || l.Attrs[0].K != "collection" {
			t.Fatalf("leaf attrs lost: %+v", l.Attrs)
		}
	})
}

func TestChildSpanNeedsEnclosingSpan(t *testing.T) {
	withEnabled(t, func() {
		if s := ChildSpan(context.Background(), "xmldb.get"); s != nil {
			t.Fatal("ChildSpan on a bare context should be nil — leaves never root traces")
		}
		if got := len(Traces()); got != 0 {
			t.Fatalf("orphan trace recorded: %d", got)
		}
	})
}

func TestRingBounded(t *testing.T) {
	withEnabled(t, func() {
		for i := 0; i < RingCap+10; i++ {
			_, s := StartSpan(context.Background(), "container.dispatch")
			s.End()
		}
		if got := len(Traces()); got != RingCap {
			t.Fatalf("ring holds %d traces, want %d", got, RingCap)
		}
	})
}

func TestStitchCrossProcess(t *testing.T) {
	upstream := TraceData{ID: "t1", Spans: []SpanData{
		{ID: "s1", Name: "container.dispatch"},
		{ID: "s2", Parent: "s1", Name: "handler"},
		{ID: "s3", Parent: "s2", Name: "wsn.deliver", MessageID: "urn:msg:pub", RelatesTo: "urn:msg:pub"},
	}}
	downstream := TraceData{ID: "t2", Spans: []SpanData{
		{ID: "s1", Name: "container.dispatch", MessageID: "urn:msg:pub"},
		{ID: "s2", Parent: "s1", Name: "handler"},
	}}
	got := Stitch([]TraceData{downstream, upstream})
	if len(got) != 1 {
		t.Fatalf("stitch left %d traces, want 1", len(got))
	}
	tr := got[0]
	if tr.ID != "t1" {
		t.Fatalf("upstream trace should survive, got %s", tr.ID)
	}
	if len(tr.Spans) != 5 {
		t.Fatalf("stitched trace has %d spans, want 5: %+v", len(tr.Spans), tr.Spans)
	}
	// The downstream root must now hang off the deliver span.
	var absorbedRoot *SpanData
	for i := range tr.Spans {
		if tr.Spans[i].ID == "t2.s1" {
			absorbedRoot = &tr.Spans[i]
		}
	}
	if absorbedRoot == nil || absorbedRoot.Parent != "s3" {
		t.Fatalf("downstream root not reparented under deliver span: %+v", absorbedRoot)
	}
	// Non-root downstream spans keep their structure under the prefix.
	var absorbedChild *SpanData
	for i := range tr.Spans {
		if tr.Spans[i].ID == "t2.s2" {
			absorbedChild = &tr.Spans[i]
		}
	}
	if absorbedChild == nil || absorbedChild.Parent != "t2.s1" {
		t.Fatalf("downstream child lost its parent: %+v", absorbedChild)
	}
}

func TestStitchChain(t *testing.T) {
	// a → b → c must collapse into one trace regardless of input order.
	a := TraceData{ID: "a", Spans: []SpanData{
		{ID: "s1", Name: "container.dispatch"},
		{ID: "s2", Parent: "s1", Name: "wsn.deliver", MessageID: "m1"},
	}}
	b := TraceData{ID: "b", Spans: []SpanData{
		{ID: "s1", Name: "container.dispatch", MessageID: "m1"},
		{ID: "s2", Parent: "s1", Name: "wsn.deliver", MessageID: "m2"},
	}}
	c := TraceData{ID: "c", Spans: []SpanData{
		{ID: "s1", Name: "container.dispatch", MessageID: "m2"},
	}}
	got := Stitch([]TraceData{c, b, a})
	if len(got) != 1 {
		t.Fatalf("chain stitch left %d traces, want 1", len(got))
	}
	if got[0].ID != "a" || len(got[0].Spans) != 5 {
		t.Fatalf("bad chain stitch: id=%s spans=%d", got[0].ID, len(got[0].Spans))
	}
}

func TestStitchIgnoresEmptyMessageIDs(t *testing.T) {
	a := TraceData{ID: "a", Spans: []SpanData{{ID: "s1", Name: "container.dispatch"}}}
	b := TraceData{ID: "b", Spans: []SpanData{{ID: "s1", Name: "container.dispatch"}}}
	if got := Stitch([]TraceData{a, b}); len(got) != 2 {
		t.Fatalf("traces without MessageIDs merged: %d", len(got))
	}
}

// TestConcurrentAccess pins the migrated-counter concurrency contract:
// counters, gauges, histograms, spans on separate goroutines, and the
// trace ring may all be hit concurrently (the scattered pre-obs
// counters were already atomics; the registry must not regress that).
// Run under -race.
func TestConcurrentAccess(t *testing.T) {
	withEnabled(t, func() {
		c := &Counter{desc: desc{"test_conc_total", "", "concurrent counter", "counter"}}
		g := &Gauge{desc: desc{"test_conc_gauge", "", "concurrent gauge", "gauge"}}
		h := fixtureHist("test_conc_seconds", "concurrent histogram")
		r := fixtures(c, g, h)
		const workers = 8
		const iters = 200
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					c.Inc()
					g.Add(1)
					g.Add(-1)
					h.Observe(time.Duration(i) * time.Microsecond)
					ctx, root := StartSpan(context.Background(), "container.dispatch")
					_, hs := StartSpan(ctx, "handler")
					hs.End()
					root.End()
				}
			}()
		}
		// A scraper runs concurrently with the writers, like a live
		// /metrics poll during traffic.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
				_ = Traces()
			}
		}()
		wg.Wait()
		<-done
		if got := c.Value(); got != workers*iters {
			t.Fatalf("counter lost updates: got %d want %d", got, workers*iters)
		}
		if got := g.Value(); got != 0 {
			t.Fatalf("gauge unbalanced: %d", got)
		}
		if got := h.Count(); got != workers*iters {
			t.Fatalf("histogram lost observations: got %d want %d", got, workers*iters)
		}
	})
}

func TestAdminEndpoints(t *testing.T) {
	withEnabled(t, func() {
		url, stop, err := ServeAdmin("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		_, s := StartSpan(context.Background(), "container.dispatch")
		s.End()

		body := httpGet(t, url+"/metrics")
		if !strings.Contains(body, "ogsa_stage_duration_seconds_bucket") {
			t.Fatalf("/metrics missing stage histograms:\n%s", body)
		}
		snap, err := DecodeSnapshot([]byte(httpGet(t, url+"/metrics.json")))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Get("ogsa_stage_duration_seconds", Label("stage", "dispatch")) == nil {
			t.Fatal("/metrics.json missing the dispatch stage histogram")
		}
		traces := httpGet(t, url+"/traces")
		if !strings.Contains(traces, `"container.dispatch"`) {
			t.Fatalf("/traces missing recorded trace:\n%s", traces)
		}
	})
}
