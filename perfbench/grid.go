package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"altstacks/internal/certs"
	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/gridbox"
	"altstacks/internal/wsa"
	"altstacks/internal/wsrf/rl"
	"altstacks/internal/wssec"
	"altstacks/internal/xmldb"
)

// grid-workflow: Grid-in-a-Box (Fig. 6) under X.509 signing, its xmldb
// on a FileBackend in a temporary directory. Two users, each with an
// identity and a site of their own, loop the Fig. 6 sequence: Get
// Available Resource → Make Reservation → Upload File → Instantiate
// Job → poll JobStatus until the job exits → Delete File → Unreserve.
// The job-exit notification is not used: signed WSN delivery fails at
// this commit (NOTES.md), so both stacks poll.

const (
	gridApp = "blast"
	// gridWait bounds each polling loop before the workflow fails.
	gridWait = 10 * time.Second
)

// gridUser is one user's view of a VO, the Fig. 6 operations spelled
// the same on both stacks.
type gridUser interface {
	available() ([]gridbox.Site, error)
	reserve() error
	upload(name, content string) error
	instantiate(spec gridbox.JobSpec) (wsa.EPR, error)
	status(job wsa.EPR) (gridbox.JobStatus, error)
	deleteFile(name string) error
	listFiles() ([]string, error)
	// unreserve releases the site explicitly; false means the VO
	// releases it by itself once the job exits.
	unreserve() (explicit bool, err error)
}

func signedClient(fix *core.Fixture, id *certs.Identity) *container.Client {
	return container.NewClient(container.ClientConfig{
		Mode: container.SecuritySign, Link: fix.Link,
		Signer: wssec.NewSigner(id), Verifier: wssec.NewVerifier(fix.CA.Pool()),
	})
}

func deployGrid(e *env, stack string, traced bool) (*deployment, error) {
	dir, err := os.MkdirTemp(e.workdir, "grid-")
	if err != nil {
		return nil, err
	}
	fb, err := xmldb.NewFileBackend(filepath.Join(dir, "db"))
	if err != nil {
		return nil, err
	}
	var backend xmldb.Backend = fb
	d := &deployment{warmup: 1}
	if traced {
		d.backend = &backendMeter{Backend: backend}
		backend = d.backend
	}
	d.db = xmldb.New(backend, xmldb.CostModel{})
	c := e.fix.NewContainer()
	local := e.fix.NewLocalClient()
	if traced {
		d.outcall = meterClient(local)
	}
	d.verifiers = []*wssec.Verifier{c.Verifier, local.Verifier}
	data := filepath.Join(dir, "data")
	switch stack {
	case "wsrf":
		_, err = gridbox.InstallWSRFVO(c, gridbox.WSRFVOConfig{DB: d.db, DataRoot: data, Local: local})
	case "wst":
		_, err = gridbox.InstallWSTVO(c, gridbox.WSTVOConfig{DB: d.db, DataRoot: data, Local: local})
	}
	if err != nil {
		return nil, err
	}
	base, err := c.Start()
	if err != nil {
		return nil, err
	}
	d.close = func() {
		c.Close()
		os.RemoveAll(dir)
	}

	ids := []*certs.Identity{e.fix.ClientID, e.user2}
	var clients []*container.Client
	for _, id := range ids {
		cl := signedClient(e.fix, id)
		if traced {
			d.wire = append(d.wire, meterClient(cl))
		}
		d.verifiers = append(d.verifiers, cl.Verifier)
		clients = append(clients, cl)
	}
	users, err := gridUsers(stack, base, clients, ids)
	if err != nil {
		d.close()
		return nil, err
	}
	var callers []*gridCaller
	for i, u := range users {
		s := &gridCaller{u: u, id: i, host: siteName(i), rng: e.rng(uint64(i))}
		s.phase.Store("")
		callers = append(callers, s)
		d.callers = append(d.callers, s)
	}
	d.probe = func() (map[string]int, error) {
		s := callers[0]
		// The WSRF VO's automatic unreserve is the one outcall made off
		// the request path; its action identifies it.
		d.outcall.attribute(func(action string) string {
			if action == rl.ActionDestroy {
				return "unreserve_resource"
			}
			return s.phase.Load().(string)
		})
		defer d.outcall.attribute(nil)
		err := s.step(time.Now(), newSamples())
		return d.outcall.counts(), err
	}
	return d, nil
}

func siteName(i int) string { return fmt.Sprintf("node-%d", i) }

// gridUsers registers both users and their sites with the VO, through
// the first user's client, and returns each user's view.
func gridUsers(stack, base string, clients []*container.Client, ids []*certs.Identity) ([]gridUser, error) {
	var users []gridUser
	switch stack {
	case "wsrf":
		admin := &gridbox.WSRFGridClient{C: clients[0], Base: base, UserDN: ids[0].DN()}
		for i, id := range ids {
			if err := admin.AddAccount(id.DN(), "run-jobs"); err != nil {
				return nil, err
			}
			if err := admin.RegisterSite(gridbox.Site{Host: siteName(i), Applications: []string{gridApp}}); err != nil {
				return nil, err
			}
		}
		for i, id := range ids {
			g := &gridbox.WSRFGridClient{C: clients[i], Base: base, UserDN: id.DN()}
			dir, err := g.CreateDirectory()
			if err != nil {
				return nil, err
			}
			users = append(users, &wsrfUser{g: g, host: siteName(i), dir: dir})
		}
	case "wst":
		admin := gridbox.NewWSTGridClient(clients[0], base, ids[0].DN())
		for i, id := range ids {
			if _, err := admin.CreateAccount(id.DN(), "run-jobs"); err != nil {
				return nil, err
			}
			if _, err := admin.RegisterSite(gridbox.Site{Host: siteName(i), Applications: []string{gridApp}}); err != nil {
				return nil, err
			}
		}
		for i, id := range ids {
			users = append(users, &wstUser{g: gridbox.NewWSTGridClient(clients[i], base, id.DN()), host: siteName(i)})
		}
	}
	return users, nil
}

type wsrfUser struct {
	g    *gridbox.WSRFGridClient
	host string
	dir  wsa.EPR
	res  wsa.EPR
}

func (u *wsrfUser) available() ([]gridbox.Site, error) { return u.g.GetAvailableResources(gridApp) }

func (u *wsrfUser) reserve() (err error) {
	u.res, err = u.g.MakeReservation(u.host)
	return err
}

func (u *wsrfUser) upload(name, content string) error { return u.g.UploadFile(u.dir, name, content) }

func (u *wsrfUser) instantiate(spec gridbox.JobSpec) (wsa.EPR, error) {
	return u.g.InstantiateJob(spec, u.res, u.dir)
}

func (u *wsrfUser) status(job wsa.EPR) (gridbox.JobStatus, error) { return u.g.JobStatus(job) }
func (u *wsrfUser) deleteFile(name string) error                  { return u.g.DeleteFile(u.dir, name) }
func (u *wsrfUser) listFiles() ([]string, error)                  { return u.g.ListFiles(u.dir) }
func (u *wsrfUser) unreserve() (bool, error)                      { return false, nil }

type wstUser struct {
	g    *gridbox.WSTGridClient
	host string
}

func (u *wstUser) available() ([]gridbox.Site, error) { return u.g.GetAvailableResources(gridApp) }
func (u *wstUser) reserve() error                     { return u.g.MakeReservation(u.host) }

func (u *wstUser) upload(name, content string) error {
	_, err := u.g.UploadFile(u.host, name, content)
	return err
}

func (u *wstUser) instantiate(spec gridbox.JobSpec) (wsa.EPR, error) {
	return u.g.InstantiateJob(spec, u.host)
}

func (u *wstUser) status(job wsa.EPR) (gridbox.JobStatus, error) { return u.g.JobStatus(job) }
func (u *wstUser) deleteFile(name string) error                  { return u.g.DeleteFile(name) }
func (u *wstUser) listFiles() ([]string, error)                  { return u.g.ListFiles() }
func (u *wstUser) unreserve() (bool, error)                      { return true, u.g.UnreserveResource(u.host) }

type gridCaller struct {
	u    gridUser
	id   int
	host string
	rng  *rand.Rand
	n    int
	// phase names the call in progress, for the outcall probe.
	phase atomic.Value
}

// step runs one whole Fig. 6 workflow and checks it: the user's own
// site is offered, the job exits with the code it was given, the
// deleted file is gone from the listing, and the site is free again.
// Each Fig. 6 call is timed as its figure cell; the JobStatus polling
// that observes the exit is the workload's delivery latency.
func (s *gridCaller) step(t0 time.Time, smp *samples) error {
	s.n++
	name := fmt.Sprintf("u%d-%d.dat", s.id, s.n)
	content := make([]byte, 256)
	for i := range content {
		content[i] = 'a' + byte(s.rng.IntN(26))
	}
	spec := gridbox.JobSpec{Application: gridApp, Duration: time.Millisecond, ExitCode: s.rng.IntN(4)}
	timed := func(cell string, f func() error) error {
		s.phase.Store(cell)
		t := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", cell, err)
		}
		smp.cell(cell, time.Since(t))
		return nil
	}

	if err := timed("get_available_resource", s.expectFree); err != nil {
		return err
	}
	if err := timed("make_reservation", s.u.reserve); err != nil {
		return err
	}
	if err := timed("upload_file", func() error { return s.u.upload(name, string(content)) }); err != nil {
		return err
	}
	var job wsa.EPR
	tJob := time.Now()
	if err := timed("instantiate_job", func() (err error) {
		job, err = s.u.instantiate(spec)
		return err
	}); err != nil {
		return err
	}
	s.phase.Store("job_status")
	for {
		st, err := s.u.status(job)
		if err != nil {
			return fmt.Errorf("job status: %w", err)
		}
		if st.Done() {
			if st.State != "exited" || st.ExitCode != spec.ExitCode {
				return fmt.Errorf("job ended %s with code %d, want exited with %d", st.State, st.ExitCode, spec.ExitCode)
			}
			smp.delivered(time.Since(tJob))
			break
		}
		if time.Since(tJob) > gridWait {
			return fmt.Errorf("job still %s after %v", st.State, gridWait)
		}
	}
	if err := timed("delete_file", func() error { return s.u.deleteFile(name) }); err != nil {
		return err
	}
	s.phase.Store("check")
	files, err := s.u.listFiles()
	if err != nil {
		return fmt.Errorf("list files: %w", err)
	}
	if slices.Contains(files, name) {
		return fmt.Errorf("deleted file %s is still listed", name)
	}

	s.phase.Store("unreserve_resource")
	t := time.Now()
	explicit, err := s.u.unreserve()
	if err != nil {
		return fmt.Errorf("unreserve_resource: %w", err)
	}
	if explicit {
		smp.cell("unreserve_resource", time.Since(t))
	}
	// Until the site is offered again: at once after an explicit
	// unreserve, after the VO's own release otherwise.
	s.phase.Store("check")
	for {
		err := s.expectFree()
		if err == nil {
			return nil
		}
		if explicit || time.Since(t) > gridWait {
			return fmt.Errorf("after unreserve: %w", err)
		}
	}
}

// expectFree fails unless the user's own site is offered as available.
func (s *gridCaller) expectFree() error {
	sites, err := s.u.available()
	if err != nil {
		return err
	}
	for _, site := range sites {
		if site.Host == s.host {
			return nil
		}
	}
	return fmt.Errorf("site %s is not available", s.host)
}
