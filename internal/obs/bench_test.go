package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// Microbenchmarks for the observability hot paths, emitted into
// BENCH_obs.json by `make bench-obs`. The numbers that matter:
// the disabled path must be a bool load, and exemplar capture must
// cost one pointer store over a plain observation.

var (
	benchHist     = NewHistogram("bench_obs_hist_seconds", "", "bench histogram")
	benchExemplar = NewHistogram("bench_obs_exemplar_seconds", "", "bench exemplar histogram")
	benchCounter  = NewCounter("bench_obs_total", "", "bench counter")
)

func BenchmarkObsObserveDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(time.Millisecond)
	}
}

func BenchmarkObsObserve(b *testing.B) {
	Enable()
	b.Cleanup(Disable)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(time.Millisecond)
	}
}

func BenchmarkObsObserveSpanExemplar(b *testing.B) {
	Enable()
	b.Cleanup(func() {
		Disable()
		ResetTraces()
	})
	_, span := StartSpan(context.Background(), "bench")
	defer span.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchExemplar.ObserveSpan(time.Millisecond, span)
	}
}

func BenchmarkObsCounterInc(b *testing.B) {
	Enable()
	b.Cleanup(Disable)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

func BenchmarkObsRecordEvent(b *testing.B) {
	Enable()
	b.Cleanup(func() {
		Disable()
		ResetEvents()
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RecordEvent("bench.tick", Attr{K: "k", V: "v"})
	}
}

func BenchmarkObsWritePrometheus(b *testing.B) {
	Enable()
	b.Cleanup(Disable)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Default.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsDecodeSnapshot is the per-peer federation cost: decode
// and validate one instance's /metrics.json body.
func BenchmarkObsDecodeSnapshot(b *testing.B) {
	Enable()
	b.Cleanup(Disable)
	data, err := json.Marshal(Default.Snapshot())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsMergeFleet4(b *testing.B) {
	Enable()
	b.Cleanup(Disable)
	insts := make([]*Exposition, 4)
	for i := range insts {
		insts[i] = Default.Snapshot()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(insts)
	}
}
