package main

import (
	"os"
	"runtime"
	"testing"
	"time"

	"altstacks/internal/core"
	"altstacks/internal/obs"
	"altstacks/internal/xmldb"
)

// TestMain turns the obs layer on, as main does: the recorders' obs
// histograms record nothing while it is off.
func TestMain(m *testing.M) {
	obs.Enable()
	os.Exit(m.Run())
}

// TestRecorderQuantiles checks the quantiles read from a recorder's
// log-linear histogram on a known distribution: 1000 samples of 1ms
// and 10 of 100ms.
func TestRecorderQuantiles(t *testing.T) {
	r := newOp("known", 1, nil).rec
	for i := 0; i < 1000; i++ {
		r.record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		r.record(100 * time.Millisecond)
	}
	// A bucket spans at most 1/16 of its lower bound.
	if p50 := r.quantile(0.50); p50 < 1e6*15/16 || p50 > 1e6*17/16 {
		t.Fatalf("p50 = %dns, want 1ms within 1/16", p50)
	}
	// 990th of 1010 ranks inside the 1ms mass; p999 reaches the tail.
	if p := r.quantile(0.999); p < 90_000_000 {
		t.Fatalf("p999 = %dns, want ~100ms", p)
	}
	if max := r.maxNs.Load(); max != int64(100*time.Millisecond) {
		t.Fatalf("max = %d, want 100ms", max)
	}
	// The clamp: no quantile exceeds the observed max.
	for _, q := range []float64{0.5, 0.99, 0.999, 1} {
		if p := r.quantile(q); p > r.maxNs.Load() {
			t.Fatalf("quantile(%v) = %d exceeds max %d", q, p, r.maxNs.Load())
		}
	}
	if q := newOp("empty", 1, nil).rec.quantile(0.5); q != 0 {
		t.Fatalf("empty recorder quantile = %d, want 0", q)
	}
}

// TestRunOpenLoopCoordinatedOmission pins the harness's defining
// property: when the service stalls, latency is measured from the
// scheduled arrival, so queued requests report the queue delay a
// closed-loop harness would omit.
func TestRunOpenLoopCoordinatedOmission(t *testing.T) {
	op := newOp("stall", 1, func() error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	// One worker at 100/s arrivals against a 20ms service time: the
	// queue grows, and late ops must be charged their wait.
	res := runOpenLoop([]*loadOp{op}, 100, 300*time.Millisecond, 1, 7)
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	// With ~30 scheduled arrivals and 20ms service, the last completion
	// waited roughly (completed-1)*20ms beyond its arrival; even p50
	// must far exceed the 20ms service time if queue delay is counted.
	if p50 := op.rec.quantile(0.50); p50 < int64(40*time.Millisecond) {
		t.Fatalf("p50 = %v, want ≫ 20ms service time (queue delay omitted?)",
			time.Duration(p50))
	}
}

// TestRunOpenLoopShedsWhenSaturated pins the overload behavior: a
// stalled worker pool with a full queue sheds arrivals rather than
// queueing without bound.
func TestRunOpenLoopShedsWhenSaturated(t *testing.T) {
	block := make(chan struct{})
	op := newOp("wedge", 1, func() error {
		<-block
		return nil
	})
	done := make(chan runResult, 1)
	go func() {
		// 1 worker, queue cap 4+1024; 10k/s for 300ms ≈ 3000 arrivals.
		done <- runOpenLoop([]*loadOp{op}, 10000, 300*time.Millisecond, 1, 7)
	}()
	time.Sleep(400 * time.Millisecond)
	close(block)
	res := <-done
	if op.rec.shed.Load() == 0 {
		t.Fatalf("no arrivals shed at 10k/s against a wedged worker (scheduled %d)", res.Scheduled)
	}
}

// TestWorkloadsRunAndClose drives a fig2 and a small pubsub workload
// through a short open loop on both stacks: every operation must
// succeed with nothing shed, and closing the workload must release
// every goroutine its deployment started, sink drains included.
func TestWorkloadsRunAndClose(t *testing.T) {
	for _, stack := range []core.Stack{core.StackWSRF, core.StackWST} {
		for _, name := range []string{"fig2", "pubsub1k"} {
			t.Run(stackShort(string(stack))+"/"+name, func(t *testing.T) {
				mix, _ := mixByName(name)
				baseline := runtime.NumGoroutine()
				wl, err := buildWorkload(stack, mix, xmldb.CostModel{}, 4, 20)
				if err != nil {
					t.Fatal(err)
				}
				res := runOpenLoop(wl.ops, 50, 400*time.Millisecond, 8, 1)
				if res.Completed == 0 {
					t.Fatal("nothing completed")
				}
				for _, op := range wl.ops {
					if e, s := op.rec.errs.Load(), op.rec.shed.Load(); e != 0 || s != 0 {
						t.Fatalf("%s: %d errors, %d shed", op.name, e, s)
					}
				}
				wl.close()
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > baseline {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after close, baseline %d", runtime.NumGoroutine(), baseline)
					}
					time.Sleep(10 * time.Millisecond)
				}
			})
		}
	}
}
