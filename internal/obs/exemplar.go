package obs

import (
	"sort"
	"strconv"
	"time"
)

// An Exemplar ties one histogram bucket back to a concrete request:
// the trace (and, when the stage carried one, the WS-Addressing
// MessageID) of the most recent observation that landed in the bucket.
// This is what turns "the p999 bucket has 3 samples" into "and here is
// the stitched span tree of one of them" — the per-stage latency
// attribution the paper's §4.1.3 comparison needs, live.
type Exemplar struct {
	// TraceID is the trace the observation belonged to. With
	// cross-process stitching, the id resolves either to a retained
	// trace directly or to a trace absorbed into an upstream one (its
	// span ids keep the "<traceID>." prefix).
	TraceID string `json:"trace_id"`
	// MessageID is the WS-Addressing MessageID the span carried, if
	// any — the cross-process correlation key.
	MessageID string `json:"message_id,omitempty"`
	// Value is the observed value in the histogram's native unit.
	Value float64 `json:"value"`
	// Time is when the observation was recorded.
	Time time.Time `json:"time"`
}

// ObserveSinceSpan is ObserveSince plus exemplar capture: when s is a
// live span, the bucket the duration lands in retains {trace id,
// message id, value, now} as its most recent exemplar. A nil span (or
// disabled instrumentation) degrades to plain ObserveSince, so call
// sites need no branches.
func (h *Histogram) ObserveSinceSpan(t0 time.Time, s *Span) {
	if t0.IsZero() {
		return
	}
	h.observeSpan(time.Since(t0), s)
}

// ObserveSpan records one duration with exemplar capture from s; see
// ObserveSinceSpan.
func (h *Histogram) ObserveSpan(d time.Duration, s *Span) {
	h.observeSpan(d, s)
}

func (h *Histogram) observeSpan(d time.Duration, s *Span) {
	if !enabled.Load() || d < 0 {
		return
	}
	sec := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, sec)
	h.buckets[i].Add(1)
	satAdd(&h.sumNanos, d.Nanoseconds())
	h.count.Add(1)
	if s != nil {
		h.exemplars[i].Store(&Exemplar{
			TraceID:   s.TraceID(),
			MessageID: s.messageID,
			Value:     sec,
			Time:      time.Now(),
		})
	}
}

// exemplar writes the OpenMetrics exemplar suffix of one bucket
// line: ` # {trace_id="...",message_id="..."} value timestamp`.
func (t *textWriter) exemplar(e *Exemplar) {
	t.WriteString(" # {" + Label("trace_id", e.TraceID))
	if e.MessageID != "" {
		t.WriteString("," + Label("message_id", e.MessageID))
	}
	t.WriteString("} ")
	t.float(e.Value)
	t.num = strconv.AppendFloat(append(t.num[:0], ' '), float64(e.Time.UnixNano())/1e9, 'f', 3, 64)
	t.Write(t.num)
}
