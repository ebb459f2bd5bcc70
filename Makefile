# Developer and CI entry points. `make ci` is what the workflow runs:
# build, vet, the full test suite under the race detector, and a
# one-iteration smoke pass over every benchmark so the figure and
# ablation harnesses can't rot silently.

GO ?= go

.PHONY: all build vet fmt-check lint test race check-race race-delivery bench-smoke bench bench-delivery bench-storage bench-load bench-obs soak-smoke fuzz-smoke obs-smoke check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean; lists the offenders and fails.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# Project-specific analyzers (internal/lint): eight checks (pooling,
# lock scope, context flow, fault surfacing, raw XML, goroutine exits,
# timer leaks, span leaks) run interprocedurally over one whole-module
# Program. `./...` covers the analyzers and their driver too. Exits
# non-zero on any finding, including a lint:ignore directive that
# suppresses nothing; accept an intentional violation in place with
# `//lint:ignore ogsalint/<name> reason`. `-json` emits a finding
# inventory.
lint:
	$(GO) run ./cmd/ogsalint ./...

# Tests run shuffled so inter-test ordering dependencies can't hide.
test:
	$(GO) test -shuffle=on ./...

# Full suite under the race detector, shuffled: the required CI gate
# for the parallel core. Everything `go test` reaches races here; the
# soak runs as its own step (see soak-smoke).
check-race:
	$(GO) test -shuffle=on -race ./...

race: check-race

# The delivery-robustness packages re-run race-pinned and named
# explicitly: the shared delivery engine (internal/fanout: health-ledger
# locking, exactly-once eviction accounting), the two stacks driving it,
# the fault-injection harness, the container's client transport
# (internal/container: the connection pool every fan-out worker shares),
# and internal/obs (the registry, trace ring and flight recorder every
# fan-out worker writes). Their semantics are concurrency claims, and
# this step keeps them from hiding inside the blanket race pass. Three
# passes give an interleaving-dependent race three chances to show.
race-delivery:
	$(GO) test -race -count=3 ./internal/fanout ./internal/wsn ./internal/wse ./internal/faultinject ./internal/container ./internal/obs/...

# One iteration of every benchmark: exercises the harnesses end to end
# without asking CI for stable timings.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Full benchmark pass with allocation counts, for real measurements.
bench:
	$(GO) test -run NONE -bench . -benchmem ./...

# Delivery-path benchmarks (fan-out latency by mode, CPU per publish
# and read and write system calls per delivery on the pubsub-fanout
# shape, per-delivery allocation flatness), emitted as machine-readable
# JSON. Advisory in CI: timings on shared runners are indicative, not
# gating.
bench-delivery:
	$(GO) test -run NONE -bench 'NotifyFanout|DeliveryAllocFlatness' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson > BENCH_delivery.json

# Storage-layer benchmarks: the 8-goroutine mixed-operation contention
# workload (ParallelMixed) plus the cache-hot point-read baseline,
# emitted as machine-readable JSON. Advisory in CI for the same reason
# as bench-delivery.
bench-storage:
	$(GO) test -run NONE -bench 'ParallelMixed|GetHot' -benchmem ./internal/xmldb \
		| $(GO) run ./cmd/benchjson > BENCH_storage.json

# Open-loop load harness: sustained-arrival-rate percentiles per
# operation mix on both stacks (see cmd/loadgen), emitted as
# machine-readable JSON. Advisory in CI like the other timing runs.
bench-load:
	$(GO) run ./cmd/loadgen -stack both -mix fig2,pubsub1k -duration 5s \
		| $(GO) run ./cmd/benchjson > BENCH_load.json

# Observability-plane benchmarks: the disabled-path floor, observation
# and exemplar-capture cost, flight-recorder append, text exposition
# render, the per-peer federation cost (decoding one /metrics.json
# snapshot), fleet merge, and the SLO engine's steady-state evaluation
# pass, emitted as machine-readable JSON. Advisory in CI like the
# other timing runs.
bench-obs:
	$(GO) test -run NONE -bench 'Obs|SLO' -benchmem ./internal/obs/... \
		| $(GO) run ./cmd/benchjson > BENCH_obs.json

# Short churn soak on both stacks: scripted fault injection (flaky,
# slow, and killed subscribers with resurrection) under sustained
# publishing, asserting the exit invariants — quiesced delivery,
# exactly-once eviction ledger, bounded caches, no goroutine leak, and
# the delivery SLO firing during the kills and resolving by exit. The
# faults act on the delivery clients' connections, so the soak runs the
# delivery path production runs. A required check.
soak-smoke:
	$(GO) run ./cmd/loadgen -soak -stack both -duration 10s

# Short fuzz passes over the network-boundary decoders that must never
# panic on adversarial bytes, and over the serializer's template (a
# random tree cut around a hole of random elements in namespaces that
# take well-known and generated prefixes, refilled with others: a fill
# must write what a full render writes, and be refused whenever that
# render binds the namespaces otherwise): the hand-rolled XML parser, a peer's
# metrics snapshot through decode, merge, render, and quantiles, a
# peer's HTTP reply through the container's client transport, post
# (which must agree with http.ReadResponse on failure, status and body,
# and never pool a connection after an incomplete reply), a peer's
# replies to a pipelined run of one to four deliveries (read reply by
# reply as http.ReadResponse reads them, every delivery after the run
# ends failing, and no pooling after an incomplete run), a client's
# request bytes through the container's server (one reply per complete
# request, as net/http's request reader counts them, and no read
# between two writes past the head cap, the body bound and two run
# buffers of read-ahead), an inbound SOAP envelope through the decode
# a request gets (soap.Parse, wsa.Extract, mustUnderstand, ParseEPR on
# every header: a repeated To, Action, MessageID or ReplyTo refused, and
# an accepted envelope re-marshaling to the same bytes and addressing),
# and a subscriber's WS-Topics expression (whose Full-dialect matches
# must also agree with the reference matcher). Minimising a new input
# is bounded at 1s, so the passes spend their 10s finding inputs rather
# than shrinking them.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/xmlutil/
	$(GO) test -run NONE -fuzz FuzzTemplate -fuzztime 10s -fuzzminimizetime 1s ./internal/xmlutil/
	$(GO) test -run NONE -fuzz FuzzDecodeSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/
	$(GO) test -run NONE -fuzz FuzzTransportResponse -fuzztime 10s -fuzzminimizetime 1s ./internal/container/
	$(GO) test -run NONE -fuzz FuzzPipelinedReplies -fuzztime 10s -fuzzminimizetime 1s ./internal/container/
	$(GO) test -run NONE -fuzz FuzzServeConn -fuzztime 10s -fuzzminimizetime 1s ./internal/container/
	$(GO) test -run NONE -fuzz FuzzExtract -fuzztime 10s -fuzzminimizetime 1s ./internal/wsa/
	$(GO) test -run NONE -fuzz FuzzTopicMatch -fuzztime 10s -fuzzminimizetime 1s ./internal/wsn/

# End-to-end check of the observability surface: counterd -admin and a
# peer-configured gridboxd -admin must come up, `gridctl metrics` must
# expose every migrated counter family plus the stage histograms, and
# the fleet commands must federate the two instances over /metrics.json.
obs-smoke:
	./scripts/obs-smoke.sh

# Everything a change should pass before review.
check: build vet fmt-check lint check-race race-delivery bench-smoke soak-smoke fuzz-smoke obs-smoke

ci: check
