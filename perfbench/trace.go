package main

import (
	"fmt"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/xmldb"
)

// The figure cells: the five hello-world operations of Fig. 2 and the
// six Grid-in-a-Box operations of Fig. 6.
var (
	helloCells = []string{"get", "set", "create", "destroy", "notify"}
	fig6Cells  = []string{"get_available_resource", "make_reservation", "upload_file",
		"instantiate_job", "delete_file", "unreserve_resource"}
)

// layerState is everything the ledger diffs across the traced window.
type layerState struct {
	server        serverSnapshot
	wire, outcall exchangeTotals
	backendCalls  int64
	backendTime   time.Duration
	backendBytes  int64
	db            xmldb.Stats
	chains        int64
	delivery      deliveryCounts
	duplicates    int64
}

func (d *deployment) state() layerState {
	s := layerState{
		server:  takeServerSnapshot(),
		wire:    sumMeters(d.wire...),
		outcall: sumMeters(d.outcall),
	}
	if d.backend != nil {
		s.backendCalls = d.backend.calls.Load()
		s.backendTime = time.Duration(d.backend.ns.Load())
		s.backendBytes = d.backend.bytes.Load()
	}
	if d.db != nil {
		s.db = d.db.Stats()
	}
	for _, v := range d.verifiers {
		s.chains += v.CacheStats().ChainVerifications
	}
	if d.delivery != nil {
		s.delivery = d.delivery()
	}
	if d.duplicates != nil {
		s.duplicates = d.duplicates()
	}
	return s
}

// runTraced measures each stack twice — untraced, then traced — and
// records the per-layer ledger of the traced window.
func (r *result) runTraced(e *env, w workload, budget time.Duration) error {
	noop := drive([]caller{noopCaller{}, noopCaller{}}, 300*time.Millisecond)
	r.add("harness.overhead_us_per_op", us(noop.wall)*2/float64(noop.ok), "us/op")

	per := budget / time.Duration(2*len(stacks))
	outcalls := map[string]map[string]int{}
	for _, stack := range stacks {
		d, err := start(e, w, stack, false)
		if err != nil {
			return err
		}
		plain := measure(d, per)
		d.close()
		r.tally(plain)
		for _, c := range append(helloCells, fig6Cells...) {
			r.cell(stack, c, plain.smp.cells[c])
		}

		if d, err = start(e, w, stack, true); err != nil {
			return err
		}
		if d.probe != nil {
			if outcalls[stack], err = d.probe(); err != nil {
				d.close()
				return fmt.Errorf("%s: outcall probe: %w", stack, err)
			}
		}
		obs.Enable()
		before := d.state()
		traced := drive(d.callers, per)
		after := d.state()
		obs.Disable()
		if d.check != nil {
			bad := d.check()
			traced.ok -= bad
			traced.failed += bad
		}
		d.close()
		r.tally(traced)
		if traced.ok == 0 || plain.ok == 0 {
			return fmt.Errorf("%s: no operation completed: %v %v", stack, plain.firstErr, traced.firstErr)
		}
		r.ledger(stack, d, plain, traced, before, after, outcalls[stack])
	}
	if len(outcalls) > 0 {
		// Fig. 6's shape as an exact count (§4.2.3: the number of
		// outcalls dictates cost): WSRF Instantiate Job makes more
		// service-to-service calls than WS-Transfer's.
		if a, b := outcalls["wsrf"]["instantiate_job"], outcalls["wst"]["instantiate_job"]; a <= b {
			r.fail("Fig. 6 shape: wsrf Instantiate Job makes %d outcalls, wst %d; want wsrf > wst", a, b)
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// div divides, reading 0 when nothing was counted.
func div(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// ledger splits the traced window's operations into per-layer numbers.
// Self times come from the obs stage deltas and the seam meters:
//
//	client.self    = op latency − wire busy time (no exchange in flight)
//	container.self = dispatch − verify − handler − serialize (parse,
//	                 routing, response signing, the write)
//	handler.self   = handler − storage − deliver − outcalls
//
// The stage histograms are process-global, so every dispatch in the
// process counts: the sinks' on pubsub-fanout, the outcall targets' on
// grid-workflow. unattributed is the wire busy time per operation less
// the server-side time on the operation's path; it is mostly loopback
// HTTP and scheduling (see NOTES.md for the estimate).
func (r *result) ledger(stack string, d *deployment, plain, traced window, before, after layerState, outcalls map[string]int) {
	add := func(name string, v float64, unit string) { r.add(stack+"."+name, v, unit) }
	ops := float64(traced.ok)
	stages, requests, faults := after.server.since(before.server)
	wire := after.wire.sub(before.wire)
	outc := after.outcall.sub(before.outcall)
	dispatch, verify, handler := stages["dispatch"], stages["verify"], stages["handler"]
	storage, serialize, deliver := stages["storage"], stages["serialize"], stages["deliver"]

	opMean := mean(traced.lat) * 1e3
	clientSelf := opMean - div(us(wire.busy), ops)
	containerSelf := dispatch.total - verify.total - handler.total - serialize.total
	// Work a handler waits on. Deliveries run inside a handler unless
	// the publisher calls the producer directly (pubsub-fanout).
	nested := storage.total + outc.total
	if !d.deliveriesMetered {
		nested += deliver.total
	}
	handlerSelf := handler.total - nested

	// The server-side path of one operation: the share of dispatches
	// that are the operation's own exchanges (the rest are nested inside
	// deliveries or outcalls), plus the nested work, divided by how many
	// exchanges were in flight at once.
	top := min(1, div(float64(wire.n), float64(requests)))
	path := top*float64(containerSelf+verify.total+serialize.total+handlerSelf) + float64(nested)
	par := max(1, div(float64(wire.total), float64(wire.busy)))
	unattributed := div(us(wire.busy), ops) - div(path/par/1e3, ops)

	add("op.mean_us", opMean, "us/op")
	add("unattributed_us_per_op", unattributed, "us/op")
	add("client.self_us_per_op", clientSelf, "us/op")
	add("client.exchanges_per_op", div(float64(wire.n), ops), "count/op")
	add("wire.rtt_us", div(us(wire.total), float64(wire.n)), "us/exchange")
	add("wire.req_bytes", div(float64(wire.reqBytes), float64(wire.n)), "B/exchange")
	add("wire.resp_bytes", div(float64(wire.respBytes), float64(wire.n)), "B/exchange")
	add("container.self_us_per_req", div(us(containerSelf), float64(dispatch.count)), "us/req")
	add("container.requests_per_op", div(float64(requests), ops), "count/op")
	add("container.faults", float64(faults), "count")
	add("wssec.verify_us_per_req", div(us(verify.total), float64(verify.count)), "us/req")
	add("wssec.chain_verifications", float64(after.chains-before.chains), "count")
	add("handler.self_us_per_req", div(us(handlerSelf), float64(handler.count)), "us/req")
	add("outcall.us_per_call", div(us(outc.total), float64(outc.n)), "us/call")
	for _, c := range fig6Cells {
		add("outcall."+c+".calls_per_op", float64(outcalls[c]), "count/op")
	}
	add("xmldb.storage_us_per_op", div(us(storage.total), ops), "us/op")
	add("xmldb.backend_calls_per_op", div(float64(after.backendCalls-before.backendCalls), ops), "count/op")
	add("xmldb.backend_us_per_call", div(us(after.backendTime-before.backendTime), float64(after.backendCalls-before.backendCalls)), "us/call")
	add("xmldb.backend_bytes_per_op", div(float64(after.backendBytes-before.backendBytes), ops), "B/op")
	add("xmldb.parses_per_read", div(float64(after.db.Parses-before.db.Parses), float64(after.db.Reads-before.db.Reads)), "ratio")
	add("xmlutil.serialize_us_per_resp", div(us(serialize.total), float64(serialize.count)), "us/resp")

	dc := deliveryCounts{
		attempts:   after.delivery.attempts - before.delivery.attempts,
		retries:    after.delivery.retries - before.delivery.retries,
		deliveries: after.delivery.deliveries - before.delivery.deliveries,
		evictions:  after.delivery.evictions - before.delivery.evictions,
	}
	publishWall := 0.0
	if d.publishCell == "" {
		publishWall = mean(traced.lat) * float64(len(traced.lat))
	} else {
		xs := traced.smp.cells[d.publishCell]
		publishWall = mean(xs) * float64(len(xs))
	}
	add("delivery.us_per_delivery", div(us(deliver.total), float64(deliver.count)), "us/delivery")
	add("delivery.attempts_per_delivery", div(float64(dc.attempts), float64(dc.deliveries)), "ratio")
	add("delivery.retries", float64(dc.retries), "count")
	add("delivery.evictions", float64(dc.evictions), "count")
	add("delivery.duplicates", float64(after.duplicates-before.duplicates), "count")
	add("delivery.fanout_width", div(ms(deliver.total), publishWall), "ratio")

	add("runtime.alloc_bytes_per_op", div(float64(plain.rt.allocBytes), float64(plain.ok)), "B/op")
	add("runtime.allocs_per_op", div(float64(plain.rt.allocObjects), float64(plain.ok)), "count/op")
	add("runtime.gc_cycles_per_kop", div(1000*float64(plain.rt.gcCycles), float64(plain.ok)), "count/kop")
	add("trace.overhead_ratio", traced.opsPerSec()/plain.opsPerSec(), "ratio")
}
