package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// roundTrip sends exp through the /metrics.json wire format.
func roundTrip(t testing.TB, exp *Exposition) *Exposition {
	t.Helper()
	data, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("snapshot did not decode: %v\n%s", err, data)
	}
	return out
}

// TestExemplarCaptureAndRoundTrip pins the exemplar path end to end:
// a span-linked observation lands its exemplar in the right bucket,
// the registry renders it in OpenMetrics `# {...}` syntax, and a peer
// decoding the JSON snapshot recovers trace id, message id, and value.
func TestExemplarCaptureAndRoundTrip(t *testing.T) {
	h := fixtureHist("test_exemplar_seconds", "exemplar round-trip fixture")
	r := fixtures(h)
	withEnabled(t, func() {
		_, span := StartSpan(context.Background(), "dispatch")
		span.SetMessageID("urn:msg:exemplar")
		h.ObserveSpan(3*time.Millisecond, span) // lands in the le="0.005" bucket
		span.End()

		exs := h.Snapshot().Exemplars
		var idx int = -1
		for i, e := range exs {
			if e != nil {
				idx = i
			}
		}
		if idx == -1 {
			t.Fatal("span observation left no exemplar")
		}
		if exs[idx].TraceID != span.TraceID() || exs[idx].MessageID != "urn:msg:exemplar" {
			t.Fatalf("exemplar ids wrong: %+v", exs[idx])
		}

		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `# {trace_id="`+span.TraceID()+`"`) {
			t.Fatal("exposition missing OpenMetrics exemplar suffix")
		}

		s := roundTrip(t, r.Snapshot()).Get("test_exemplar_seconds", "")
		if s == nil || s.Hist == nil {
			t.Fatal("decoded snapshot lost the test histogram")
		}
		ex := s.Hist.Exemplars[idx]
		if ex == nil || ex.TraceID != span.TraceID() || ex.MessageID != "urn:msg:exemplar" {
			t.Fatalf("exemplar did not survive the round trip: %+v", ex)
		}
		if ex.Value < 0.0025 || ex.Value > 0.005 {
			t.Fatalf("exemplar value %v outside its bucket", ex.Value)
		}
	})
}

// TestHostileLabelValue is the escaping regression test: a label value
// containing every character that can corrupt the text exposition —
// quote, backslash, newline, and a closing brace — must render as one
// line and survive the snapshot round trip intact.
func TestHostileLabelValue(t *testing.T) {
	hostile := `sink"},evil="1` + "\n" + `back\slash`
	labels := Label("endpoint", hostile)
	c := &Counter{desc: desc{"test_hostile_total", labels, "hostile label fixture", "counter"}}
	r := fixtures(c)
	withEnabled(t, func() {
		c.Add(7)

		sampleLine := func(exp *Exposition) string {
			var buf bytes.Buffer
			if err := exp.Render(&buf); err != nil {
				t.Fatal(err)
			}
			var found []string
			for _, line := range strings.Split(buf.String(), "\n") {
				if strings.Contains(line, "test_hostile_total") && !strings.HasPrefix(line, "#") {
					found = append(found, line)
				}
			}
			if len(found) != 1 || !strings.HasSuffix(found[0], " 7") {
				t.Fatalf("hostile label broke the sample line: %q", found)
			}
			return found[0]
		}
		local := r.Snapshot()
		want := sampleLine(local)

		peer := roundTrip(t, local)
		s := peer.Get("test_hostile_total", labels)
		if s == nil {
			t.Fatalf("hostile label did not survive the round trip; series: %+v",
				peer.Family("test_hostile_total"))
		}
		if s.Value != 7 {
			t.Fatalf("hostile-labeled counter = %v, want 7", s.Value)
		}
		if got := sampleLine(peer); got != want {
			t.Fatalf("round-tripped line %q, local line %q", got, want)
		}
	})
}

// instance builds a two-family peer snapshot: a request counter and a
// latency histogram with bounds 0.1 and 1, its first bucket carrying ex
// when non-nil.
func instance(reqs float64, counts []int64, sum float64, ex *Exemplar) *Exposition {
	h := &HistogramSnapshot{Bounds: []float64{0.1, 1}, Counts: counts, Sum: sum}
	for _, c := range counts {
		h.Count += c
	}
	if ex != nil {
		h.Exemplars = []*Exemplar{ex, nil, nil}
	}
	return &Exposition{Families: []*Family{
		{Name: "reqs_total", Help: "requests", Type: "counter", Series: []*Series{{Value: reqs}}},
		{Name: "lat_seconds", Help: "latency", Type: "histogram", Series: []*Series{{Hist: h}}},
	}}
}

func instA() *Exposition {
	return instance(5, []int64{2, 1, 1}, 1.5,
		&Exemplar{TraceID: "tA", MessageID: "mA", Value: 0.05, Time: time.Unix(100, 0)})
}

func instB() *Exposition {
	return instance(7, []int64{10, 0, 1}, 3.25,
		&Exemplar{TraceID: "tB", Value: 0.07, Time: time.Unix(200, 0)})
}

// TestParseMergeRoundTrip: two instance snapshots decoded from the
// wire merge into bucket-aligned fleet totals with the most recent
// exemplar winning, the merge renders to the expected text, and it
// survives another round trip unchanged.
func TestParseMergeRoundTrip(t *testing.T) {
	a, b := roundTrip(t, instA()), roundTrip(t, instB())
	m := Merge([]*Exposition{a, b})
	if got := m.Get("reqs_total", "").Value; got != 12 {
		t.Fatalf("merged counter = %v, want 12", got)
	}
	hm := m.Get("lat_seconds", "").Hist
	if want := []int64{12, 1, 2}; hm.Counts[0] != want[0] || hm.Counts[1] != want[1] || hm.Counts[2] != want[2] {
		t.Fatalf("merged bucket counts = %v, want %v", hm.Counts, want)
	}
	if hm.Count != 15 || hm.Sum != 4.75 {
		t.Fatalf("merged count/sum = %d/%v, want 15/4.75", hm.Count, hm.Sum)
	}
	if hm.Exemplars[0] == nil || hm.Exemplars[0].TraceID != "tB" {
		t.Fatalf("merge kept the stale exemplar: %+v", hm.Exemplars[0])
	}

	var buf bytes.Buffer
	if err := m.Render(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 12 # {trace_id="tB"} 0.07 200.000
lat_seconds_bucket{le="1"} 13
lat_seconds_bucket{le="+Inf"} 15
lat_seconds_sum 4.75
lat_seconds_count 15
# HELP reqs_total requests
# TYPE reqs_total counter
reqs_total 12
`
	if buf.String() != want {
		t.Fatalf("merged render:\n%s\nwant:\n%s", buf.String(), want)
	}

	h2 := roundTrip(t, m).Get("lat_seconds", "").Hist
	if h2.Count != hm.Count || h2.Counts[0] != hm.Counts[0] || h2.Exemplars[0].TraceID != "tB" {
		t.Fatalf("merge round trip drifted: %+v vs %+v", h2, hm)
	}

	// An instance without exemplars first must still pick up the
	// other's.
	noEx := roundTrip(t, instance(1, []int64{1, 0, 0}, 0.01, nil))
	if ex := Merge([]*Exposition{noEx, b}).Get("lat_seconds", "").Hist.Exemplars; len(ex) != 3 || ex[0] == nil || ex[0].TraceID != "tB" {
		t.Fatalf("exemplar lost merging into an exemplar-free series: %+v", ex)
	}
}

// TestMergeSkewedBounds: a version-skewed peer whose bucket bounds
// disagree must not corrupt the fleet histogram — its series is
// dropped, the first instance's data kept.
func TestMergeSkewedBounds(t *testing.T) {
	skewed := instB()
	skewed.Get("lat_seconds", "").Hist.Bounds[0] = 0.25
	m := Merge([]*Exposition{roundTrip(t, instA()), roundTrip(t, skewed)})
	hm := m.Get("lat_seconds", "").Hist
	if hm.Count != 4 || hm.Counts[0] != 2 {
		t.Fatalf("skewed peer leaked into the merge: %+v", hm)
	}
}

// TestDecodeSnapshotRejects: every histogram shape Render or Quantile
// would index past, and every null a merge would dereference, fails
// the decode instead.
func TestDecodeSnapshotRejects(t *testing.T) {
	hist := func(h string) string {
		return `{"families":[{"name":"h","type":"histogram","series":[{"hist":` + h + `}]}]}`
	}
	for name, body := range map[string]string{
		"null family":        `{"families":[null]}`,
		"null series":        `{"families":[{"name":"c","type":"counter","series":[null]}]}`,
		"newline in name":    `{"families":[{"name":"c 1\nforged","type":"counter"}]}`,
		"newline in labels":  `{"families":[{"name":"c","type":"counter","series":[{"labels":"a=\"1\"} 1\nforged{"}]}]}`,
		"descending bounds":  hist(`{"bounds":[1,0.5],"counts":[0,0,0],"count":0}`),
		"equal bounds":       hist(`{"bounds":[1,1],"counts":[0,0,0],"count":0}`),
		"short counts":       hist(`{"bounds":[1,2],"counts":[1,1],"count":2}`),
		"long counts":        hist(`{"bounds":[1],"counts":[1,1,1],"count":3}`),
		"negative count":     hist(`{"bounds":[1],"counts":[-1,2],"count":1}`),
		"count above total":  hist(`{"counts":[1],"count":5}`),
		"count below total":  hist(`{"bounds":[1],"counts":[1,1],"count":1}`),
		"count overflow":     hist(`{"bounds":[1],"counts":[9223372036854775807,1],"count":0}`),
		"short exemplars":    hist(`{"bounds":[1],"counts":[1,0],"count":1,"exemplars":[null]}`),
		"non-finite in JSON": hist(`{"bounds":[1e999],"counts":[0,0],"count":0}`),
		"not JSON":           `# TYPE c counter`,
	} {
		if _, err := DecodeSnapshot([]byte(body)); err == nil {
			t.Errorf("%s: decoded without error: %s", name, body)
		}
	}
	for _, b := range []float64{math.NaN(), math.Inf(1)} {
		h := HistogramSnapshot{Bounds: []float64{b}, Counts: []int64{0, 0}}
		if h.validate() == nil {
			t.Errorf("bound %v passed validation", b)
		}
	}
}

// TestFederateReportsBadPeers: a peer without /metrics.json and a peer
// whose snapshot fails validation are both reported like unreachable
// ones, and the merge goes on with the good peer.
func TestFederateReportsBadPeers(t *testing.T) {
	good, _ := json.Marshal(instA())
	bad, _ := json.Marshal(instance(1, []int64{1}, 0, nil)) // one count for two bounds
	serve := func(body []byte) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) { w.Write(body) })
		return httptest.NewServer(mux)
	}
	goodPeer, badPeer := serve(good), serve(bad)
	defer goodPeer.Close()
	defer badPeer.Close()
	textOnly := httptest.NewServer(http.NotFoundHandler())
	defer textOnly.Close()

	merged, errs := FederateFleet([]string{goodPeer.URL, badPeer.URL, textOnly.URL})
	if len(errs) != 2 {
		t.Fatalf("errors = %v, want the rejected and the endpoint-less peer", errs)
	}
	if s := merged.Get("reqs_total", ""); s == nil || s.Value != 5 {
		t.Fatalf("merge lost the good peer or kept a bad one: %+v", s)
	}
}

// TestSnapshotSkipsNonFiniteGauge: JSON cannot carry NaN, so a gauge
// reading one must drop out of the snapshot instead of failing every
// peer's /metrics.json encode.
func TestSnapshotSkipsNonFiniteGauge(t *testing.T) {
	r := fixtures(&GaugeFunc{desc: desc{"test_nan_gauge", "", "non-finite gauge fixture", "gauge"}, fn: math.NaN})
	exp := r.Snapshot()
	if f := exp.Family("test_nan_gauge"); f == nil || len(f.Series) != 0 {
		t.Fatalf("NaN gauge family = %+v, want present with no series", f)
	}
	if _, err := json.Marshal(exp); err != nil {
		t.Fatalf("snapshot does not encode: %v", err)
	}
}

// FuzzDecodeSnapshot: whatever a peer sends, decoding, merging with the
// local snapshot, rendering, and reading quantiles never panic.
func FuzzDecodeSnapshot(f *testing.F) {
	local := Default.Snapshot()
	for _, exp := range []*Exposition{instA(), instB(), local} {
		data, err := json.Marshal(exp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"families":[{"name":"h","type":"histogram","series":[{"hist":{"counts":[1],"count":5}}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		peer, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		merged := Merge([]*Exposition{local, peer})
		if err := merged.Render(io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, exp := range []*Exposition{peer, merged} {
			for _, fam := range exp.Families {
				for _, s := range fam.Series {
					if s.Hist != nil {
						s.Hist.Quantile(0.5)
						s.Hist.Quantile(1)
					}
				}
			}
		}
	})
}
