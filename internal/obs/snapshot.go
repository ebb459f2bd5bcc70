package obs

// HistogramSnapshot is a point-in-time copy of one histogram's state,
// safe to hold, diff, merge, and query after the fact. The same type
// carries a local histogram (harness code in cmd/loadgen and tests
// that needs percentiles as numbers), a peer's histogram decoded from
// its /metrics.json, and a fleet-wide merge of both.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds, ascending, in the histogram's
	// native unit (seconds for latency histograms). The final implicit
	// bucket is +Inf.
	Bounds []float64 `json:"bounds"`
	// Counts holds len(Bounds)+1 per-bucket counts (not cumulative);
	// the last entry is the +Inf bucket.
	Counts []int64 `json:"counts"`
	// Sum is the running sum of observed values, in the native unit.
	Sum float64 `json:"sum"`
	// Count is the total number of observations across all buckets.
	Count int64 `json:"count"`
	// Exemplars is index-aligned with Counts, nil where a bucket holds
	// none; the whole slice is nil when no bucket does.
	Exemplars []*Exemplar `json:"exemplars,omitempty"`
}

// Snapshot copies the histogram's current state. Counts are loaded
// bucket by bucket without a global lock, so a snapshot taken during
// concurrent observation can be off by the handful of in-flight
// samples — fine for the before/after diffs it exists for.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // registered bounds are never mutated
		Counts: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = float64(h.sumNanos.Load()) / 1e9
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]*Exemplar, len(h.exemplars))
			}
			s.Exemplars[i] = e
		}
	}
	return s
}

// Delta returns the observations present in s but not in prev — the
// standard pattern for isolating one measurement window from a
// process-lifetime histogram. prev must be a snapshot of the same
// histogram (same bounds); a mismatched diff returns s unchanged. The
// delta keeps s's exemplars, the most recent there are.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Counts) != len(s.Counts) {
		return s
	}
	d := HistogramSnapshot{
		Bounds:    s.Bounds,
		Counts:    make([]int64, len(s.Counts)),
		Sum:       s.Sum - prev.Sum,
		Count:     s.Count - prev.Count,
		Exemplars: s.Exemplars,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// distribution by linear interpolation inside the bucket holding the
// target rank, the same estimate a Prometheus histogram_quantile would
// give. Observations in the +Inf bucket resolve to the highest finite
// bound (the estimate cannot exceed what the buckets can say), or to
// 0 when there is none. An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	top := 0.0
	if len(s.Bounds) > 0 {
		top = s.Bounds[len(s.Bounds)-1]
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return top // +Inf bucket
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	// Count exceeds the bucket total (an inconsistent peer snapshot).
	return top
}

// Values returns the current value of every counter and gauge series
// (float gauges truncated), keyed "name" or "name{labels}" exactly as
// the text exposition renders the sample name. It reads the same
// Snapshot /metrics renders, for harnesses that assert on metric
// deltas (cmd/loadgen's soak invariants) without scraping text.
// Histograms are omitted; read them via Histogram.Snapshot.
func (r *Registry) Values() map[string]int64 {
	out := map[string]int64{}
	for _, f := range r.Snapshot().Families {
		for _, s := range f.Series {
			if s.Hist != nil {
				continue
			}
			key := f.Name
			if s.Labels != "" {
				key += "{" + s.Labels + "}"
			}
			out[key] = int64(s.Value)
		}
	}
	return out
}

// Values reads the Default registry; see Registry.Values.
func Values() map[string]int64 { return Default.Values() }

// Stages returns the six pipeline stage histograms keyed by stage
// name, so harness code can iterate them without hard-coding the
// variable list.
func Stages() map[string]*Histogram {
	return map[string]*Histogram{
		"dispatch":  StageDispatch,
		"verify":    StageVerify,
		"handler":   StageHandler,
		"storage":   StageStorage,
		"serialize": StageSerialize,
		"deliver":   StageDeliver,
	}
}
