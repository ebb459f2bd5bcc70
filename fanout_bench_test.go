// Notification fan-out benchmarks: the parallel delivery pool against
// the sequential dispatch it replaced, on both stacks, across
// subscriber-set sizes.
//
// Deliveries run over the netlat LAN profile (the paper's switched
// 100 Mb interconnect, 400 µs RTT), because that is where fan-out
// width matters: each delivery is an independent network exchange
// whose latency — not CPU — dominates the batch, so overlapping the
// exchanges collapses the batch time even on a single-core host. The
// "seq" variants force Workers=1 (the pre-overhaul behavior); "par"
// uses a 16-wide pool.
//
// Run: go test -bench=NotifyFanout -benchmem
package altstacks_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/experiments"
	"altstacks/internal/faultinject"
	"altstacks/internal/netlat"
	"altstacks/internal/retry"
	"altstacks/internal/xmlutil"
)

// parWidth is the pool width for the "par" variants: wide enough to
// overlap most of a 100-subscriber batch's network latency without
// pretending the host has unbounded sockets.
const parWidth = 16

var fanoutCounts = []int{1, 10, 100}

func fanoutPayload() *xmlutil.Element {
	return xmlutil.New("urn:e", "Ev").Add(xmlutil.NewText("urn:e", "V", "1"))
}

// deployFanout deploys subs subscriptions on the "bench" topic over
// sinks drained endpoints, torn down when the benchmark ends.
func deployFanout(b *testing.B, stack core.Stack, subs, sinks int, deliver container.ClientConfig) *experiments.Fanout {
	b.Helper()
	f, err := experiments.NewFanout(stack, "bench", subs, sinks, deliver)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	return f
}

// BenchmarkNotifyFanout measures one Notify/Publish over N subscribers
// on each stack, sequential vs pooled delivery, and then the perfbench
// pubsub-fanout shape on each.
func BenchmarkNotifyFanout(b *testing.B) {
	b.Run("wsn", benchWSNFanout)
	b.Run("wse", benchWSEFanout)
	b.Run("pubsub1k", func(b *testing.B) {
		b.Run("wsn", func(b *testing.B) { benchPubSub(b, core.StackWSRF) })
		b.Run("wse", func(b *testing.B) { benchPubSub(b, core.StackWST) })
	})
}

// benchPubSub publishes to 1000 subscriptions spread over 32 sinks on
// plain loopback, with pooled delivery and every knob at its default
// (GOMAXPROCS workers): the fan-out of perfbench's pubsub-fanout
// workload, where each sink receives 31 or 32 of a publish's
// deliveries. Each delivery costs less here than there: no subscription
// carries a reference parameter (each of perfbench's carries its own
// `Sub`, a header of every request to it), the payload is one value
// (perfbench's carries a sequence number and 64 bytes of data), and the
// sinks are wsn.Consumer and wse.HTTPSink endpoints drained by one
// goroutine each, where perfbench's are containers whose handler
// records every receipt. So a saving in rendering each delivery reads
// smaller here than in perfbench. It reports the process's CPU time per
// publish, the workload's cpu_ms_per_op, and, where /proc/self/io
// exists, its read
// and write system calls per delivery: both sides of every exchange
// are included in each.
func benchPubSub(b *testing.B, stack core.Stack) {
	const subs, sinks = 1000, 32
	f := deployFanout(b, stack, subs, sinks, container.ClientConfig{})
	msg := fanoutPayload()
	publish := func() (int, error) {
		if f.Producer != nil {
			return f.Producer.Notify("bench/tick", msg)
		}
		return f.Source.Publish("bench/tick", msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu := processCPU()
	reads, writes, counted := processSyscalls()
	for i := 0; i < b.N; i++ {
		if n, err := publish(); n != subs || err != nil {
			b.Fatalf("publish = %d, %v; want %d", n, err, subs)
		}
	}
	b.ReportMetric(float64(processCPU()-cpu)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
	if r, w, ok := processSyscalls(); counted && ok {
		deliveries := float64(b.N * subs)
		b.ReportMetric(float64(r-reads)/deliveries, "reads/delivery")
		b.ReportMetric(float64(w-writes)/deliveries, "writes/delivery")
	}
}

func benchWSNFanout(b *testing.B) {
	for _, count := range fanoutCounts {
		count := count
		b.Run(fmt.Sprintf("%dsubs", count), func(b *testing.B) {
			p := deployFanout(b, core.StackWSRF, count, count, container.ClientConfig{Link: netlat.LAN}).Producer
			msg := fanoutPayload()
			// The delivery-mode axis: "permessage" reproduces the paper's
			// one-shot consumer connections (a TCP handshake per delivery,
			// §4.1.3 — the pre-overhaul behavior and the Fig 2/3 setting);
			// "pooled" rides the persistent per-host idle pool. seq/pooled
			// is omitted: pooling matters where deliveries overlap.
			for _, mode := range []struct {
				name    string
				workers int
				deliver container.DeliveryMode
			}{
				{"seq/permessage", 1, container.DeliveryPerMessage},
				{"par/permessage", parWidth, container.DeliveryPerMessage},
				{"par/pooled", parWidth, container.DeliveryPooled},
			} {
				mode := mode
				b.Run(mode.name, func(b *testing.B) {
					p.Workers = mode.workers
					p.Mode = mode.deliver
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						n, err := p.Notify("bench/tick", msg)
						if err != nil {
							b.Fatal(err)
						}
						if n != count {
							b.Fatalf("delivered %d, want %d", n, count)
						}
					}
				})
			}
		})
	}
}

func benchWSEFanout(b *testing.B) {
	for _, count := range fanoutCounts {
		count := count
		b.Run(fmt.Sprintf("%dsubs", count), func(b *testing.B) {
			src := deployFanout(b, core.StackWST, count, count, container.ClientConfig{Link: netlat.LAN}).Source
			msg := fanoutPayload()
			// wse push delivery is always pooled (the Plumbwork stack's
			// persistent channels are its paper-era behavior), so the only
			// axis here is fan-out width.
			for _, mode := range []struct {
				name    string
				workers int
			}{{"seq", 1}, {"par", parWidth}} {
				mode := mode
				b.Run(mode.name, func(b *testing.B) {
					src.Workers = mode.workers
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						n, err := src.Publish("bench/tick", msg)
						if err != nil {
							b.Fatal(err)
						}
						if n != count {
							b.Fatalf("delivered %d, want %d", n, count)
						}
					}
				})
			}
		})
	}
}

// ---- Per-delivery allocation flatness ----

// BenchmarkDeliveryAllocFlatness checks the pooled delivery path's
// allocation behavior is linear in fan-out width: the allocs-per-
// delivery metric must stay flat (±10%) from 10 to 1000 subscribers,
// or some per-batch structure is quadratic in disguise. All
// subscriptions share one consumer endpoint so the benchmark measures
// the delivery path, not a thousand loopback servers; no netlat link,
// so allocation — not simulated latency — dominates. The endpoint is
// drained, or the handler-side drop path would skew the numbers.
//
// Run: go test -bench=DeliveryAllocFlatness -benchmem
func BenchmarkDeliveryAllocFlatness(b *testing.B) {
	for _, count := range []int{10, 100, 1000} {
		count := count
		b.Run(fmt.Sprintf("%dsubs", count), func(b *testing.B) {
			p := deployFanout(b, core.StackWSRF, count, 1, container.ClientConfig{PoolSize: parWidth}).Producer
			p.Workers = parWidth
			msg := fanoutPayload()
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := p.Notify("bench/tick", msg)
				if err != nil {
					b.Fatal(err)
				}
				if n != count {
					b.Fatalf("delivered %d, want %d", n, count)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			perDelivery := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N) / float64(count)
			b.ReportMetric(perDelivery, "allocs/delivery")
		})
	}
}

// ---- Dead-subscriber fan-out cost ----

// BenchmarkNotifyDeadSubscriber measures what one dead subscriber in a
// 100-subscriber fan-out costs, in three phases per stack:
//
//   - healthy: all subscribers alive (the baseline)
//   - retrying: one subscriber hangs every call; each publish pays the
//     full retry budget (attempts × DeliveryTimeout plus backoff) for it
//   - evicted: the dead subscription has been evicted (EvictAfter); the
//     fan-out is back to baseline over the 99 survivors
//
// The dead endpoint is a faultinject drop plan (the call blocks until
// the delivery timeout), the failure mode a silently dead host shows.
//
// Run: go test -bench=NotifyDeadSubscriber
func BenchmarkNotifyDeadSubscriber(b *testing.B) {
	b.Run("wsn", benchWSNDeadSubscriber)
	b.Run("wse", benchWSEDeadSubscriber)
}

const (
	deadBenchSubs    = 100
	deadBenchTimeout = 50 * time.Millisecond
)

var deadBenchRetry = retry.Policy{
	MaxAttempts: 3,
	BaseBackoff: time.Millisecond,
	MaxBackoff:  4 * time.Millisecond,
}

func benchWSNDeadSubscriber(b *testing.B) {
	f := deployFanout(b, core.StackWSRF, deadBenchSubs, deadBenchSubs, container.ClientConfig{Link: netlat.LAN})
	p := f.Producer
	in := faultinject.New()
	p.Deliver = in.WrapClient(p.Deliver)
	p.Workers = parWidth
	p.DeliveryTimeout = deadBenchTimeout
	p.Retry = deadBenchRetry
	p.EvictAfter = 0 // managed per phase
	deadAddr := f.Sinks[0].Address
	msg := fanoutPayload()

	b.Run("healthy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n, err := p.Notify("bench/tick", msg); n != deadBenchSubs || err != nil {
				b.Fatalf("Notify = %d, %v", n, err)
			}
		}
	})
	b.Run("retrying", func(b *testing.B) {
		in.Set(deadAddr, faultinject.Plan{DropFirst: 1 << 30})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := p.Notify("bench/tick", msg); n != deadBenchSubs-1 || err == nil {
				b.Fatalf("Notify = %d, %v", n, err)
			}
		}
	})
	b.Run("evicted", func(b *testing.B) {
		// Warm-up publish to trigger the eviction; idempotent because the
		// testing package runs this closure once with b.N=1 before the
		// measured run, and the second pass finds the subscription gone.
		p.EvictAfter = 1
		if _, err := p.Notify("bench/tick", msg); err != nil && p.DeliveryStats().Evictions == 0 {
			b.Fatalf("evicting publish did not evict: %v", err)
		}
		if subs, _ := p.Subscriptions(); len(subs) != deadBenchSubs-1 {
			b.Fatalf("%d subscriptions, want %d", len(subs), deadBenchSubs-1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := p.Notify("bench/tick", msg); n != deadBenchSubs-1 || err != nil {
				b.Fatalf("Notify = %d, %v", n, err)
			}
		}
	})
}

func benchWSEDeadSubscriber(b *testing.B) {
	f := deployFanout(b, core.StackWST, deadBenchSubs, deadBenchSubs, container.ClientConfig{Link: netlat.LAN})
	src := f.Source
	in := faultinject.New()
	src.HTTP = in.WrapClient(src.HTTP)
	src.Workers = parWidth
	src.DeliveryTimeout = deadBenchTimeout
	src.Retry = deadBenchRetry
	src.EvictAfter = 0 // managed per phase
	deadAddr := f.Sinks[0].Address
	msg := fanoutPayload()

	b.Run("healthy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n, err := src.Publish("bench/tick", msg); n != deadBenchSubs || err != nil {
				b.Fatalf("Publish = %d, %v", n, err)
			}
		}
	})
	b.Run("retrying", func(b *testing.B) {
		in.Set(deadAddr, faultinject.Plan{DropFirst: 1 << 30})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := src.Publish("bench/tick", msg); n != deadBenchSubs-1 || err == nil {
				b.Fatalf("Publish = %d, %v", n, err)
			}
		}
	})
	b.Run("evicted", func(b *testing.B) {
		// Warm-up publish to trigger the eviction; idempotent because the
		// testing package runs this closure once with b.N=1 before the
		// measured run, and the second pass finds the subscription gone.
		src.EvictAfter = 1
		if _, err := src.Publish("bench/tick", msg); err != nil && src.DeliveryStats().Evictions == 0 {
			b.Fatalf("evicting publish did not evict: %v", err)
		}
		if remaining := len(src.Store.All()); remaining != deadBenchSubs-1 {
			b.Fatalf("%d subscriptions, want %d", remaining, deadBenchSubs-1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := src.Publish("bench/tick", msg); n != deadBenchSubs-1 || err != nil {
				b.Fatalf("Publish = %d, %v", n, err)
			}
		}
	})
}
