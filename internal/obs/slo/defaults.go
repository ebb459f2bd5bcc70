package slo

import (
	"strings"

	"altstacks/internal/obs"
)

// DefaultObjectives are the stock objectives the daemons evaluate: the
// availability of the container pipeline plus latency objectives on
// the dispatch and delivery stages. Latency thresholds sit exactly on
// histogram bucket bounds (0.25s, 1s) — the snapshot cannot resolve
// a threshold between bounds.
func DefaultObjectives(requests, faults *obs.Counter) []Objective {
	return []Objective{
		Availability("availability", 0.999, requests, faults),
		Latency("dispatch-latency", 0.99, 0.25, obs.StageDispatch),
		Latency("deliver-latency", 0.95, 1, obs.StageDeliver),
	}
}

// ServeAdmin is the daemons' admin plane: it federates the
// comma-separated peer admin URLs (none when empty), evaluates
// DefaultObjectives over the request and fault counters at /slo, with
// flight-recorder dumps to stderr when an alert fires, and serves the
// obs admin mux on addr. stop shuts down the server and the engine.
func ServeAdmin(addr, peers string, requests, faults *obs.Counter) (url string, stop func(), err error) {
	if peers != "" {
		obs.SetFederatePeers(strings.Split(peers, ","))
	}
	engine := New(Config{Objectives: DefaultObjectives(requests, faults)})
	engine.Start()
	obs.HandleAdmin("/slo", engine.Handler())
	url, stopAdmin, err := obs.ServeAdmin(addr)
	if err != nil {
		engine.Stop()
		return "", nil, err
	}
	return url, func() { stopAdmin(); engine.Stop() }, nil
}
