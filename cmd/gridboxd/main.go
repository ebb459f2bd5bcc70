// Command gridboxd serves a complete Grid-in-a-Box virtual
// organization (paper §4.2) on a chosen software stack, with a VO
// administrator account, a set of computing sites, and optional user
// accounts pre-provisioned.
//
// Usage:
//
//	gridboxd [-stack wsrf|wst] [-security none|sign] [-data DIR]
//	         [-sites node-a:blast,render;node-b:blast]
//	         [-users "CN=alice,O=UVA"] [-admin-dn DN] [-admin :port]
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
	"altstacks/internal/gridbox"
	"altstacks/internal/netlat"
	"altstacks/internal/obs"
	"altstacks/internal/obs/slo"
	"altstacks/internal/xmldb"
)

func main() {
	stack := flag.String("stack", "wsrf", "software stack: wsrf or wst")
	security := flag.String("security", "none", "security mode: none or sign")
	dataDir := flag.String("data", "", "data staging root (default: a temp directory)")
	sitesFlag := flag.String("sites", "node-a:blast,render;node-b:blast", "sites as host:app,app;host:app")
	usersFlag := flag.String("users", "CN=alice,O=UVA", "user DNs to pre-provision, separated by |")
	adminDN := flag.String("admin-dn", "", "restrict administrative operations to this DN")
	admin := flag.String("admin", "", "serve /metrics, /traces, and pprof on this address (e.g. :9090; enables instrumentation)")
	peers := flag.String("peers", "", "comma-separated admin URLs of peer instances merged into /federate")
	delta := flag.Duration("reservation-delta", gridbox.DefaultReservationDelta, "initial reservation lifetime")
	flag.Parse()

	if *admin != "" {
		// Enable before the container starts so the very first request
		// is already traced and counted.
		obs.Enable()
	}
	var mode container.SecurityMode
	switch *security {
	case "none":
		mode = container.SecurityNone
	case "sign":
		mode = container.SecuritySign
	default:
		fatal("unknown security mode %q (want none or sign)", *security)
	}
	fix, err := core.NewFixture(mode, netlat.CoLocated)
	if err != nil {
		fatal("generate PKI: %v", err)
	}
	root := *dataDir
	if root == "" {
		root, err = os.MkdirTemp("", "gridbox-*")
		if err != nil {
			fatal("%v", err)
		}
	}
	sites, err := parseSites(*sitesFlag)
	if err != nil {
		fatal("%v", err)
	}

	c := fix.NewContainer()
	db := xmldb.NewMemory(xmldb.CostModel{})
	local := fix.NewLocalClient()

	switch *stack {
	case "wsrf":
		if _, err := gridbox.InstallWSRFVO(c, gridbox.WSRFVOConfig{
			DB: db, DataRoot: root, AdminDN: *adminDN, Local: local, ReservationDelta: *delta,
		}); err != nil {
			fatal("install: %v", err)
		}
	case "wst":
		if _, err := gridbox.InstallWSTVO(c, gridbox.WSTVOConfig{
			DB: db, DataRoot: root, AdminDN: *adminDN, Local: local,
		}); err != nil {
			fatal("install: %v", err)
		}
	default:
		fatal("unknown stack %q (want wsrf or wst)", *stack)
	}

	base, err := c.Start()
	if err != nil {
		fatal("start: %v", err)
	}

	// Provision users and sites through the admin client path, the same
	// interfaces external admins use.
	if err := provision(*stack, base, fix, sites, splitUsers(*usersFlag)); err != nil {
		fatal("provision: %v", err)
	}

	fmt.Printf("gridboxd: stack=%s security=%s data=%s\n", *stack, mode, root)
	if *admin != "" {
		if *peers != "" {
			obs.SetFederatePeers(strings.Split(*peers, ","))
		}
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
		fmt.Printf("  admin endpoint: %s\n", adminURL)
	}
	paths := map[string][]string{
		"wsrf": {"/account", "/allocation", "/reservation", "/data", "/exec", "/exec-submgr"},
		"wst":  {"/account", "/allocation", "/data", "/execution", "/execution-events", "/execution-evtmgr"},
	}
	for _, p := range paths[*stack] {
		fmt.Printf("  %s%s\n", base, p)
	}
	for _, s := range sites {
		fmt.Printf("  site %s: %s\n", s.Host, strings.Join(s.Applications, ","))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	c.Close()
}

func provision(stack, base string, fix *core.Fixture, sites []gridbox.Site, users []string) error {
	switch stack {
	case "wsrf":
		admin := &gridbox.WSRFGridClient{C: fix.NewLocalClient(), Base: base, UserDN: "CN=admin"}
		for _, u := range users {
			if err := admin.AddAccount(u, "run-jobs"); err != nil {
				return err
			}
		}
		for _, s := range sites {
			if err := admin.RegisterSite(s); err != nil {
				return err
			}
		}
	case "wst":
		admin := gridbox.NewWSTGridClient(fix.NewLocalClient(), base, "CN=admin")
		for _, u := range users {
			if _, err := admin.CreateAccount(u, "run-jobs"); err != nil {
				return err
			}
		}
		for _, s := range sites {
			if _, err := admin.RegisterSite(s); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseSites(s string) ([]gridbox.Site, error) {
	var out []gridbox.Site
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		host, apps, ok := strings.Cut(part, ":")
		if !ok || host == "" {
			return nil, fmt.Errorf("bad site spec %q (want host:app,app)", part)
		}
		site := gridbox.Site{Host: host}
		for _, a := range strings.Split(apps, ",") {
			if a = strings.TrimSpace(a); a != "" {
				site.Applications = append(site.Applications, a)
			}
		}
		out = append(out, site)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sites configured")
	}
	return out, nil
}

func splitUsers(s string) []string {
	var out []string
	for _, u := range strings.Split(s, "|") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "gridboxd: "+format+"\n", args...)
	os.Exit(1)
}
