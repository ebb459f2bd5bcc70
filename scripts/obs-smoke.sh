#!/usr/bin/env bash
# Observability smoke test: build counterd and gridctl, start a
# two-instance cluster with the admin endpoints enabled, scrape
# /metrics through `gridctl metrics`, and assert every migrated counter
# family plus the per-stage latency histogram is exposed. Also
# exercises `gridctl trace` against /traces, the fleet view
# (`gridctl top` across both admins, over their /metrics.json
# snapshots), server-side federation (`gridctl federate` on the
# peer-configured instance), and the SLO and flight-recorder endpoints.
# Run via `make obs-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
pid=""
pid2=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid2" ] && kill "$pid2" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/counterd" ./cmd/counterd
go build -o "$tmp/gridctl" ./cmd/gridctl

# The daemon prints its admin endpoint once the listener is up; poll
# the log for it rather than guessing a port.
wait_admin() { # logfile pidvar -> echoes admin URL
    local log="$1" dpid="$2" admin=""
    for _ in $(seq 1 100); do
        admin="$(sed -n 's/.*admin endpoint: *//p' "$log" | head -n 1)"
        [ -n "$admin" ] && break
        if ! kill -0 "$dpid" 2>/dev/null; then
            echo "obs-smoke: counterd exited early:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$admin" ]; then
        echo "obs-smoke: counterd never printed its admin endpoint:" >&2
        cat "$log" >&2
        exit 1
    fi
    echo "$admin"
}

"$tmp/counterd" -admin 127.0.0.1:0 >"$tmp/counterd.log" 2>&1 &
pid=$!
admin="$(wait_admin "$tmp/counterd.log" "$pid")"

# Second instance federates the first through its /federate endpoint.
"$tmp/counterd" -admin 127.0.0.1:0 -peers "$admin" >"$tmp/counterd2.log" 2>&1 &
pid2=$!
admin2="$(wait_admin "$tmp/counterd2.log" "$pid2")"

"$tmp/gridctl" -admin "$admin" metrics >"$tmp/metrics.txt"

# One name per migrated counter family (labeled families match on the
# prefix), plus the unified stage histogram.
required="
ogsa_container_requests_total
ogsa_container_faults_total
ogsa_xmldb_ops_total
ogsa_xmldb_parses_total
ogsa_wssec_chain_verifications_total
ogsa_wssec_trust_cache_hits_total
ogsa_xml_parse_total
ogsa_xml_parse_bytes_total
ogsa_wsn_delivery_attempts_total
ogsa_wsn_deliveries_total
ogsa_wsn_delivery_failures_total
ogsa_wsn_retries_total
ogsa_wsn_evictions_total
ogsa_wsn_state_write_errors_total
ogsa_wsn_broker_control_calls_total
ogsa_wsn_broker_control_errors_total
ogsa_wse_deliveries_total
ogsa_wse_delivery_failures_total
ogsa_wse_sink_dropped_total
ogsa_wse_state_write_errors_total
ogsa_retry_backoffs_total
ogsa_fanout_tasks_total
ogsa_stage_duration_seconds
ogsa_uptime_seconds
"
fail=0
for name in $required; do
    if ! grep -q "^$name" "$tmp/metrics.txt"; then
        echo "obs-smoke: /metrics is missing $name" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "obs-smoke: exposition was:" >&2
    cat "$tmp/metrics.txt" >&2
    exit 1
fi

# The trace command must reach /traces and exit clean even when the
# ring is empty (no requests have been served yet).
"$tmp/gridctl" -admin "$admin" trace >"$tmp/traces.txt"

# Fleet view across both admins: gridctl fetches each /metrics.json
# snapshot, and the merged FLEET row appears only when more than one
# instance answered with a valid one.
"$tmp/gridctl" -admin "$admin,$admin2" top >"$tmp/top.txt"
if ! grep -q '^FLEET' "$tmp/top.txt"; then
    echo "obs-smoke: gridctl top across two admins shows no FLEET row:" >&2
    cat "$tmp/top.txt" >&2
    exit 1
fi

# Server-side federation: the peer-configured instance's /federate must
# merge both instances and carry the request counter family.
"$tmp/gridctl" -admin "$admin2" federate >"$tmp/federate.txt"
if ! grep -q '^# federate: 2 instance(s)$' "$tmp/federate.txt"; then
    echo "obs-smoke: /federate did not merge 2 instances:" >&2
    cat "$tmp/federate.txt" >&2
    exit 1
fi
if ! grep -q '^ogsa_container_requests_total' "$tmp/federate.txt"; then
    echo "obs-smoke: /federate output is missing the request counter:" >&2
    cat "$tmp/federate.txt" >&2
    exit 1
fi
if ! grep -q '^# TYPE ogsa_stage_duration_seconds histogram$' "$tmp/federate.txt"; then
    echo "obs-smoke: /federate output is missing the stage histogram family:" >&2
    cat "$tmp/federate.txt" >&2
    exit 1
fi

# SLO engine: the daemon evaluates once at startup, so the objectives
# table is populated immediately.
"$tmp/gridctl" -admin "$admin2" slo >"$tmp/slo.txt"
if ! grep -q 'OBJECTIVE' "$tmp/slo.txt" || ! grep -q 'availability' "$tmp/slo.txt"; then
    echo "obs-smoke: gridctl slo shows no availability objective:" >&2
    cat "$tmp/slo.txt" >&2
    exit 1
fi

# Flight recorder: dump must exit clean even when the ring is empty.
"$tmp/gridctl" -admin "$admin2" dump >"$tmp/dump.txt"

echo "obs-smoke: ok ($(grep -c '^ogsa_' "$tmp/metrics.txt") samples exposed, 2-instance fleet federated)"
