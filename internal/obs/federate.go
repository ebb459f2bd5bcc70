package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metrics federation: one process's /metrics is a keyhole view of a
// multi-instance fleet. Instances exchange their registry Snapshot as JSON
// at /metrics.json; Merge folds any number of snapshots into one fleet
// view — counters and gauges sum, bucket-aligned histograms add per
// bucket, exemplars keep the most recent — and Render writes any
// snapshot, local or merged, as Prometheus text. The /federate admin
// endpoint serves exactly that: the local registry merged with every
// configured peer's snapshot, so `gridctl top` pointed at any one
// daemon sees the whole fleet. Text is for external scrapers only;
// nothing here reads it back.

// Exposition is a registry snapshot: every metric family with its
// current series.
type Exposition struct {
	// Instance names the source ("" until a scraper labels it); it is
	// carried for drill-down display, never merged or sent.
	Instance string    `json:"-"`
	Families []*Family `json:"families"`
}

// Family is one metric family: every series sharing a name.
type Family struct {
	Name   string    `json:"name"`
	Help   string    `json:"help"`
	Type   string    `json:"type"`
	Series []*Series `json:"series"`
}

// Series is one label set of a family: a plain value for counters and
// gauges, a histogram snapshot for histograms.
type Series struct {
	// Labels is the canonical label block without braces (and, for
	// histograms, without le), values escaped: `stage="deliver"`.
	Labels string             `json:"labels,omitempty"`
	Value  float64            `json:"value,omitempty"`
	Hist   *HistogramSnapshot `json:"hist,omitempty"`
}

// Family returns the named family, or nil.
func (e *Exposition) Family(name string) *Family {
	for _, f := range e.Families {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Get returns the series of family name whose label block equals
// labels, or nil.
func (e *Exposition) Get(name, labels string) *Series {
	f := e.Family(name)
	if f == nil {
		return nil
	}
	for _, s := range f.Series {
		if s.Labels == labels {
			return s
		}
	}
	return nil
}

// DecodeSnapshot decodes one instance's /metrics.json body and rejects
// it unless every family and histogram is one Merge, Render, and
// Quantile can trust: a peer's snapshot is network input.
func DecodeSnapshot(data []byte) (*Exposition, error) {
	exp := &Exposition{}
	if err := json.Unmarshal(data, exp); err != nil {
		return nil, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	for _, f := range exp.Families {
		if err := f.validate(); err != nil {
			return nil, fmt.Errorf("obs: decode snapshot: %w", err)
		}
	}
	return exp, nil
}

func (f *Family) validate() error {
	if f == nil {
		return errors.New("null family")
	}
	// A raw newline in any rendered string would forge extra lines in
	// the /federate text; registered names and escaped labels have none.
	if strings.ContainsRune(f.Name+f.Help+f.Type, '\n') {
		return fmt.Errorf("family %q: newline in name, help, or type", f.Name)
	}
	for _, s := range f.Series {
		if s == nil {
			return fmt.Errorf("family %s: null series", f.Name)
		}
		if strings.ContainsRune(s.Labels, '\n') {
			return fmt.Errorf("family %s: newline in labels", f.Name)
		}
		if s.Hist == nil {
			continue
		}
		if err := s.Hist.validate(); err != nil {
			return fmt.Errorf("%s{%s}: %w", f.Name, s.Labels, err)
		}
	}
	return nil
}

// validate checks the shape Render indexes without guards: finite
// ascending bounds, one count per bucket plus +Inf, non-negative
// counts that add up to Count, and exemplars absent or one per bucket.
func (h *HistogramSnapshot) validate() error {
	for i, b := range h.Bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("non-finite bound %v", b)
		}
		if i > 0 && b <= h.Bounds[i-1] {
			return errors.New("bounds not ascending")
		}
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		return fmt.Errorf("%d counts for %d bounds", len(h.Counts), len(h.Bounds))
	}
	var total int64
	for _, c := range h.Counts {
		if c < 0 || total > math.MaxInt64-c {
			return fmt.Errorf("bucket count %d out of range", c)
		}
		total += c
	}
	if total != h.Count {
		return fmt.Errorf("count %d != bucket total %d", h.Count, total)
	}
	if n := len(h.Exemplars); n != 0 && n != len(h.Counts) {
		return fmt.Errorf("%d exemplars for %d buckets", n, len(h.Counts))
	}
	return nil
}

// Merge folds any number of instance snapshots into one fleet view:
// counters and gauges sum, histograms with identical bounds add per
// bucket (keeping the most recent exemplar per bucket), and families
// are emitted in name order. Histogram series whose bounds disagree
// across instances (a version-skewed peer) keep the first instance's
// data and drop the mismatched one rather than fabricating buckets.
// Inputs are local snapshots or DecodeSnapshot results, both of which
// are well-formed.
func Merge(insts []*Exposition) *Exposition {
	out := &Exposition{Instance: "fleet"}
	fams := map[string]*Family{}
	series := map[string]map[string]*Series{}
	for _, inst := range insts {
		if inst == nil {
			continue
		}
		for _, f := range inst.Families {
			mf := fams[f.Name]
			if mf == nil {
				mf = &Family{Name: f.Name, Help: f.Help, Type: f.Type}
				fams[f.Name] = mf
				series[f.Name] = map[string]*Series{}
				out.Families = append(out.Families, mf)
			}
			for _, s := range f.Series {
				ms := series[f.Name][s.Labels]
				if ms == nil {
					ms = &Series{Labels: s.Labels, Value: s.Value, Hist: cloneHist(s.Hist)}
					series[f.Name][s.Labels] = ms
					mf.Series = append(mf.Series, ms)
					continue
				}
				if s.Hist == nil || ms.Hist == nil {
					ms.Value += s.Value
					continue
				}
				mergeHist(ms.Hist, s.Hist)
			}
		}
	}
	sort.Slice(out.Families, func(i, j int) bool { return out.Families[i].Name < out.Families[j].Name })
	return out
}

func cloneHist(h *HistogramSnapshot) *HistogramSnapshot {
	if h == nil {
		return nil
	}
	return &HistogramSnapshot{
		Bounds:    append([]float64(nil), h.Bounds...),
		Counts:    append([]int64(nil), h.Counts...),
		Sum:       h.Sum,
		Count:     h.Count,
		Exemplars: append([]*Exemplar(nil), h.Exemplars...),
	}
}

func mergeHist(dst, src *HistogramSnapshot) {
	if len(dst.Bounds) != len(src.Bounds) {
		return // version-skewed peer; keep dst
	}
	for i, b := range dst.Bounds {
		if b != src.Bounds[i] {
			return
		}
	}
	for i := range dst.Counts {
		dst.Counts[i] += src.Counts[i]
	}
	dst.Sum += src.Sum
	dst.Count += src.Count
	for i, ex := range src.Exemplars {
		if ex == nil {
			continue
		}
		if dst.Exemplars == nil {
			dst.Exemplars = make([]*Exemplar, len(dst.Counts))
		}
		if cur := dst.Exemplars[i]; cur == nil || ex.Time.After(cur.Time) {
			dst.Exemplars[i] = ex
		}
	}
}

// Render writes the exposition in Prometheus text format, each
// bucket's exemplar as an OpenMetrics `# {...}` suffix. It is the one
// text writer: /metrics renders the local snapshot, /federate and
// `gridctl metrics -fleet` render a merge.
func (e *Exposition) Render(w io.Writer) error {
	t := textWriter{Writer: bufio.NewWriter(w)}
	for _, f := range e.Families {
		t.WriteString("# HELP " + f.Name + " " + f.Help + "\n# TYPE " + f.Name + " " + f.Type + "\n")
		for _, s := range f.Series {
			h := s.Hist
			if h == nil {
				t.name(f.Name, "", s.Labels, nil)
				t.value(s.Value)
				t.WriteByte('\n')
				continue
			}
			cum := int64(0)
			for i, c := range h.Counts {
				le := infLE
				if i < len(h.Bounds) {
					t.num = strconv.AppendFloat(t.num[:0], h.Bounds[i], 'g', -1, 64)
					le = t.num
				}
				t.name(f.Name, "_bucket", s.Labels, le)
				cum += c
				t.integer(cum)
				if i < len(h.Exemplars) && h.Exemplars[i] != nil {
					t.exemplar(h.Exemplars[i])
				}
				t.WriteByte('\n')
			}
			t.name(f.Name, "_sum", s.Labels, nil)
			t.float(h.Sum)
			t.WriteByte('\n')
			t.name(f.Name, "_count", s.Labels, nil)
			t.integer(cum)
			t.WriteByte('\n')
		}
	}
	return t.Flush()
}

var infLE = []byte("+Inf")

// textWriter is Render's line writer: numbers go through one reused
// scratch buffer, so a sample line costs no allocation.
type textWriter struct {
	*bufio.Writer
	num []byte
}

// name writes `name+suffix{labels,le="…"} `, the braces only when
// there is a label; le is set on bucket lines only.
func (t *textWriter) name(name, suffix, labels string, le []byte) {
	t.WriteString(name)
	t.WriteString(suffix)
	if labels != "" || le != nil {
		t.WriteByte('{')
		t.WriteString(labels)
		if le != nil {
			if labels != "" {
				t.WriteByte(',')
			}
			t.WriteString(`le="`)
			t.Write(le)
			t.WriteByte('"')
		}
		t.WriteByte('}')
	}
	t.WriteByte(' ')
}

func (t *textWriter) integer(v int64) {
	t.num = strconv.AppendInt(t.num[:0], v, 10)
	t.Write(t.num)
}

func (t *textWriter) float(v float64) {
	t.num = strconv.AppendFloat(t.num[:0], v, 'g', -1, 64)
	t.Write(t.num)
}

// value writes a counter or gauge value: integral values as plain
// integers (a count of 12345678, not 1.2345678e+07), others in the
// shortest 'g' form.
func (t *textWriter) value(v float64) {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		t.integer(int64(v))
		return
	}
	t.float(v)
}

// ---- fleet scraping ----

// federation is the process's peer list, set by the daemon from its
// -peers flag and read by the /federate handler.
var federation struct {
	mu    sync.Mutex
	peers []string
}

// SetFederatePeers configures the admin URLs (scheme://host:port) of
// the other instances /federate merges in.
func SetFederatePeers(urls []string) {
	federation.mu.Lock()
	federation.peers = append([]string(nil), urls...)
	federation.mu.Unlock()
}

// FederatePeers returns the configured peer admin URLs.
func FederatePeers() []string {
	federation.mu.Lock()
	defer federation.mu.Unlock()
	return append([]string(nil), federation.peers...)
}

// scrapeClient bounds peer scrapes so one hung peer cannot wedge a
// /federate request.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// maxSnapshotBytes caps one peer's /metrics.json body; a registry
// snapshot is tens of kilobytes.
const maxSnapshotBytes = 8 << 20

// ScrapeInstance fetches and decodes one instance's /metrics.json. The
// returned exposition's Instance is the admin URL's host:port. A peer
// without the endpoint, or whose snapshot fails validation, is an
// error like an unreachable one.
func ScrapeInstance(adminURL string) (*Exposition, error) {
	resp, err := scrapeClient.Get(strings.TrimRight(adminURL, "/") + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scrape %s: %s", adminURL, resp.Status)
	}
	exp, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	exp.Instance = instanceName(adminURL)
	return exp, nil
}

func instanceName(adminURL string) string {
	name := strings.TrimRight(adminURL, "/")
	name = strings.TrimPrefix(name, "http://")
	name = strings.TrimPrefix(name, "https://")
	return name
}

// FederateFleet merges the local registry with every peer's snapshot.
// Unreachable or rejected peers are reported in the returned error
// list but do not fail the merge — a fleet view with a hole beats no
// view during an incident.
func FederateFleet(peers []string) (*Exposition, []error) {
	var errs []error
	insts := []*Exposition{Default.Snapshot()}
	for _, p := range peers {
		exp, err := ScrapeInstance(p)
		if err != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", p, err))
			continue
		}
		insts = append(insts, exp)
	}
	return Merge(insts), errs
}

// federateHandler serves the merged local+peers exposition. Scrape
// errors surface as exposition comments so a partial fleet view is
// visibly partial.
func federateHandler(w http.ResponseWriter, _ *http.Request) {
	peers := FederatePeers()
	merged, errs := FederateFleet(peers)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, err := range errs {
		fmt.Fprintf(w, "# federate: %v\n", err)
	}
	fmt.Fprintf(w, "# federate: %d instance(s)\n", 1+len(peers)-len(errs))
	_ = merged.Render(w)
}
