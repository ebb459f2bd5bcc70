// Command counterd serves the paper's "hello world" counter service
// (§4.1) on a chosen software stack and security mode, standalone.
//
// Usage:
//
//	counterd [-stack wsrf|wst] [-security none|tls|sign] [-db memory|DIR]
//	         [-subs FILE]
//
// The process prints the endpoint URLs and, for the secured modes, the
// paths of the generated throwaway PKI material, then serves until
// interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/counter"
	"altstacks/internal/netlat"
	"altstacks/internal/obs"
	"altstacks/internal/obs/slo"
	"altstacks/internal/wse"
	"altstacks/internal/xmldb"
)

func main() {
	stack := flag.String("stack", "wsrf", "software stack: wsrf (WSRF/WS-Notification) or wst (WS-Transfer/WS-Eventing)")
	security := flag.String("security", "none", "security mode: none, tls, or sign")
	dbPath := flag.String("db", "memory", "resource store: 'memory' or a directory path")
	subsPath := flag.String("subs", "", "WS-Eventing subscription file (wst stack; empty = memory)")
	admin := flag.String("admin", "", "serve /metrics, /traces, and pprof on this address (e.g. :9090; enables instrumentation)")
	peers := flag.String("peers", "", "comma-separated admin URLs of peer instances merged into /federate")
	flag.Parse()

	if *admin != "" {
		// Enable before the container starts so the very first request
		// is already traced and counted.
		obs.Enable()
	}
	mode, err := parseMode(*security)
	if err != nil {
		fatal("%v", err)
	}
	fix, err := core.NewFixture(mode, netlat.CoLocated)
	if err != nil {
		fatal("generate PKI: %v", err)
	}
	c := fix.NewContainer()

	db, err := openDB(*dbPath)
	if err != nil {
		fatal("%v", err)
	}
	deliver := fix.NewLocalClient()

	switch *stack {
	case "wsrf":
		counter.InstallWSRF(c, db, deliver)
	case "wst":
		store, err := wse.NewStore(*subsPath)
		if err != nil {
			fatal("open subscription store: %v", err)
		}
		counter.InstallWST(c, db, store, deliver)
	default:
		fatal("unknown stack %q (want wsrf or wst)", *stack)
	}

	base, err := c.Start()
	if err != nil {
		fatal("start: %v", err)
	}
	fmt.Printf("counterd: stack=%s security=%s\n", *stack, mode)
	fmt.Printf("  counter service:       %s/counter\n", base)
	if *admin != "" {
		if *peers != "" {
			obs.SetFederatePeers(strings.Split(*peers, ","))
		}
		// The SLO engine rides the admin endpoint: burn-rate state at
		// /slo, flight-recorder dumps to stderr when an alert fires.
		reqs, faults := container.RequestCounters()
		engine := slo.New(slo.Config{Objectives: slo.DefaultObjectives(reqs, faults)})
		engine.Start()
		defer engine.Stop()
		obs.HandleAdmin("/slo", engine.Handler())
		adminURL, stopAdmin, err := obs.ServeAdmin(*admin)
		if err != nil {
			fatal("%v", err)
		}
		defer stopAdmin()
		fmt.Printf("  admin endpoint:        %s\n", adminURL)
	}
	switch *stack {
	case "wsrf":
		fmt.Printf("  subscription manager:  %s/counter-submgr\n", base)
	case "wst":
		fmt.Printf("  event source:          %s/counter-events\n", base)
		fmt.Printf("  subscription manager:  %s/counter-evtmgr\n", base)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	c.Close()
}

func parseMode(s string) (container.SecurityMode, error) {
	switch s {
	case "none":
		return container.SecurityNone, nil
	case "tls":
		return container.SecurityTLS, nil
	case "sign":
		return container.SecuritySign, nil
	}
	return 0, fmt.Errorf("unknown security mode %q (want none, tls, or sign)", s)
}

func openDB(path string) (*xmldb.DB, error) {
	if path == "memory" {
		return xmldb.NewMemory(xmldb.CostModel{}), nil
	}
	be, err := xmldb.NewFileBackend(path)
	if err != nil {
		return nil, err
	}
	return xmldb.New(be, xmldb.CostModel{}), nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "counterd: "+format+"\n", args...)
	os.Exit(1)
}
