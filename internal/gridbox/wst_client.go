package gridbox

import (
	"fmt"
	"strconv"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/wst"
	"altstacks/internal/xmlutil"
)

// WSTGridClient is the grid-user (and admin) client for the
// WS-Transfer flavor: everything is a resource and every interaction
// is one of the four CRUD verbs with "the right XML header content"
// (§4.2.3). Resource names are NOT opaque: the client constructs EPRs
// using the service-specific rules the paper describes (mode prefixes,
// DN/filename ids) — the EPR-opaqueness trade-off of §2.3.
type WSTGridClient struct {
	T *wst.Client
	// Base is the VO container's base URL.
	Base string
	// UserDN identifies the caller in unauthenticated scenarios,
	// carried as a reference-parameter header on every EPR.
	UserDN string
}

// NewWSTGridClient builds a client.
func NewWSTGridClient(c *container.Client, baseURL, userDN string) *WSTGridClient {
	return &WSTGridClient{T: &wst.Client{C: c}, Base: baseURL, UserDN: userDN}
}

// epr mints a service EPR with the given reference-property id and the
// caller's UserDN reference parameter.
func (g *WSTGridClient) epr(path, refLocal, id string) wsa.EPR {
	e := wsa.NewEPR(g.Base + path)
	if id != "" {
		e = e.WithProperty(NS, refLocal, id)
	}
	if g.UserDN != "" {
		e = e.WithParameter(NS, "UserDN", g.UserDN)
	}
	return e
}

// ---- Admin operations ----

// CreateAccount registers a user account resource (administrative).
func (g *WSTGridClient) CreateAccount(dn string, privileges ...string) (wsa.EPR, error) {
	rep := xmlutil.New(NS, "Account").Add(xmlutil.NewText(NS, "DN", dn))
	for _, p := range privileges {
		rep.Add(xmlutil.NewText(NS, "Privilege", p))
	}
	epr, _, err := g.T.Create(g.epr("/account", "", ""), rep)
	return epr, err
}

// DeleteAccount removes all privileges of a user (administrative).
func (g *WSTGridClient) DeleteAccount(dn string) error {
	return g.T.Delete(g.epr("/account", "AccountDN", dn))
}

// AccountExists probes an account with a Get.
func (g *WSTGridClient) AccountExists(dn string) (bool, error) {
	_, err := g.T.Get(g.epr("/account", "AccountDN", dn))
	if err == nil {
		return true, nil
	}
	return false, nil //nolint:nilerr // absence is the negative result
}

// RegisterSite creates a computing-site resource (administrative).
func (g *WSTGridClient) RegisterSite(site Site) (wsa.EPR, error) {
	epr, _, err := g.T.Create(g.epr("/allocation", "", ""), site.Element())
	return epr, err
}

// RemoveSite deletes a computing site (administrative).
func (g *WSTGridClient) RemoveSite(host string) error {
	return g.T.Delete(g.epr("/allocation", "SiteID", host))
}

// ---- Grid user operations (the Figure 6 rows) ----

// GetAvailableResources is a Get in availability mode ("1"+app).
func (g *WSTGridClient) GetAvailableResources(app string) ([]Site, error) {
	resp, err := g.T.Get(g.epr("/allocation", "SiteID", ModeAvailable+app))
	if err != nil {
		return nil, err
	}
	var out []Site
	for _, el := range resp.ChildrenNamed(NS, "Site") {
		s, err := ParseSite(el)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// MakeReservation is a Put in reserve mode ("+"+host).
func (g *WSTGridClient) MakeReservation(host string) error {
	return g.T.Put(g.epr("/allocation", "SiteID", ModeReserve+host), xmlutil.New(NS, "Reserve"))
}

// UnreserveResource is a Put in unreserve mode ("-"+host). Manual on
// this stack: Figure 6 reports a real cost here where the WSRF flavor
// reports none.
func (g *WSTGridClient) UnreserveResource(host string) error {
	return g.T.Put(g.epr("/allocation", "SiteID", ModeUnreserve+host), xmlutil.New(NS, "Unreserve"))
}

// RetimeReservation is a Put in re-time mode ("~"+host).
func (g *WSTGridClient) RetimeReservation(host string, until time.Time) error {
	body := xmlutil.New(NS, "Retime").Add(
		xmlutil.NewText(NS, "Until", until.UTC().Format(time.RFC3339)))
	return g.T.Put(g.epr("/allocation", "SiteID", ModeRetime+host), body)
}

// ReservedBy asks which user has reserved the site.
func (g *WSTGridClient) ReservedBy(host string) (string, error) {
	resp, err := g.T.Get(g.epr("/allocation", "SiteID", host))
	if err != nil {
		return "", err
	}
	return resp.TrimText(), nil
}

// UploadFile creates a file resource; host names the reservation the
// upload rides on.
func (g *WSTGridClient) UploadFile(host, name, content string) (wsa.EPR, error) {
	rep := xmlutil.NewText(NS, "FileUpload", content).
		SetAttr("", "name", name).
		SetAttr("", "host", host)
	epr, _, err := g.T.Create(g.epr("/data", "", ""), rep)
	if err != nil {
		return wsa.EPR{}, err
	}
	return g.withUserEPR(epr), nil
}

// withUserEPR re-attaches the UserDN reference parameter to EPRs
// minted by services (which return bare resource EPRs).
func (g *WSTGridClient) withUserEPR(e wsa.EPR) wsa.EPR {
	if g.UserDN == "" {
		return e
	}
	if _, ok := e.Property(NS, "UserDN"); ok {
		return e
	}
	return e.WithParameter(NS, "UserDN", g.UserDN)
}

// FileEPR constructs a file EPR from the service-specific naming rule
// (DN/filename) — client-side name construction, §2.3's opaqueness
// trade-off in action.
func (g *WSTGridClient) FileEPR(name string) wsa.EPR {
	return g.epr("/data", "FileID", g.UserDN+"/"+name)
}

// ListFiles is a Get on the trailing-"/" directory EPR.
func (g *WSTGridClient) ListFiles() ([]string, error) {
	resp, err := g.T.Get(g.epr("/data", "FileID", g.UserDN+"/"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, f := range resp.ChildrenNamed(NS, "File") {
		out = append(out, f.TrimText())
	}
	return out, nil
}

// DownloadFile is a Get on a file EPR.
func (g *WSTGridClient) DownloadFile(name string) (string, error) {
	resp, err := g.T.Get(g.FileEPR(name))
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// OverwriteFile is a Put on a file EPR.
func (g *WSTGridClient) OverwriteFile(name, content string) error {
	return g.T.Put(g.FileEPR(name), xmlutil.NewText(NS, "FileUpload", content))
}

// DeleteFile is a Delete on a file EPR (one call; Figure 6's
// comparable Delete File row).
func (g *WSTGridClient) DeleteFile(name string) error {
	return g.T.Delete(g.FileEPR(name))
}

// InstantiateJob is a Create on the execution service.
func (g *WSTGridClient) InstantiateJob(spec JobSpec, host string) (wsa.EPR, error) {
	rep := xmlutil.New(NS, "JobSubmission").Add(
		spec.Element(),
		xmlutil.NewText(NS, "Host", host),
	)
	epr, _, err := g.T.Create(g.epr("/execution", "", ""), rep)
	if err != nil {
		return wsa.EPR{}, err
	}
	return g.withUserEPR(epr), nil
}

// JobStatus is a Get on the job EPR.
func (g *WSTGridClient) JobStatus(job wsa.EPR) (JobStatus, error) {
	resp, err := g.T.Get(job)
	if err != nil {
		return JobStatus{}, err
	}
	statusEl := resp.Child(NS, "Status")
	if statusEl == nil {
		return JobStatus{}, fmt.Errorf("gridbox: job representation has no Status")
	}
	st := JobStatus{State: statusEl.ChildText(NS, "State")}
	st.ExitCode, _ = strconv.Atoi(statusEl.ChildText(NS, "ExitCode"))
	if ms, err := strconv.ParseInt(statusEl.ChildText(NS, "RunTimeMS"), 10, 64); err == nil {
		st.RunTime = time.Duration(ms) * time.Millisecond
	}
	return st, nil
}

// DeleteJob kills the process and removes the representation.
func (g *WSTGridClient) DeleteJob(job wsa.EPR) error {
	return g.T.Delete(job)
}

// SubscribeJobExited subscribes to the job's completion event over
// WS-Eventing, using the per-job topic filter and Plumbwork's raw-TCP
// delivery channel.
func (g *WSTGridClient) SubscribeJobExited(job wsa.EPR) (core.EventStream, error) {
	jobID, ok := job.Property(NS, "JobID")
	if !ok {
		return nil, fmt.Errorf("gridbox: job EPR carries no JobID")
	}
	sink, err := wse.NewTCPSink(8)
	if err != nil {
		return nil, err
	}
	res, err := wse.Subscribe(g.T.C, g.epr("/execution-events", "", ""), wse.SubscribeOptions{
		NotifyTo: wsa.NewEPR(sink.Addr()),
		Mode:     wse.DeliveryModeTCP,
		Filter:   wse.TopicFilter(TopicJobPrefix + jobID + "/**"),
	})
	if err != nil {
		sink.Close()
		return nil, err
	}
	return core.NewStream(sink.Ch, func() error {
		err := wse.Unsubscribe(g.T.C, res.Manager)
		sink.Close()
		return err
	}), nil
}

// RunJob executes the full workflow on the WS-Transfer stack: discover
// a site, reserve it, stage files, start the job, await completion,
// survey output — and, unlike the WSRF flavor, explicitly unreserve
// (manual lifetime management, §4.2.3).
func (g *WSTGridClient) RunJob(spec JobSpec, stageIn map[string]string, timeout time.Duration) (RunJobResult, error) {
	var res RunJobResult
	sites, err := g.GetAvailableResources(spec.Application)
	if err != nil {
		return res, fmt.Errorf("get available: %w", err)
	}
	if len(sites) == 0 {
		return res, fmt.Errorf("gridbox: no available site runs %q", spec.Application)
	}
	host := sites[0].Host
	if err := g.MakeReservation(host); err != nil {
		return res, fmt.Errorf("reserve: %w", err)
	}
	for name, content := range stageIn {
		if _, err := g.UploadFile(host, name, content); err != nil {
			return res, fmt.Errorf("stage in %s: %w", name, err)
		}
	}
	if res.Job, err = g.InstantiateJob(spec, host); err != nil {
		return res, fmt.Errorf("start job: %w", err)
	}
	stream, err := g.SubscribeJobExited(res.Job)
	if err != nil {
		return res, fmt.Errorf("subscribe: %w", err)
	}
	//lint:ignore ogsalint/soapfault the job has exited, so the subscription's JobID filter never matches again; a failed unsubscribe must not fail a finished workflow
	defer stream.Cancel()
	deadline := time.After(timeout)
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
waiting:
	for {
		select {
		case <-stream.Events():
			break waiting
		case <-poll.C:
			if st, err := g.JobStatus(res.Job); err == nil && st.Done() {
				break waiting
			}
		case <-deadline:
			return res, fmt.Errorf("gridbox: job did not complete within %v", timeout)
		}
	}
	if res.Status, err = g.JobStatus(res.Job); err != nil {
		return res, fmt.Errorf("status: %w", err)
	}
	if res.OutputFiles, err = g.ListFiles(); err != nil {
		return res, fmt.Errorf("list output: %w", err)
	}
	// Manual unreserve — "a failure to destroy a reservation after a
	// job is finished would prevent the subsequent use of that
	// execution resource" (§4.2.3).
	if err := g.UnreserveResource(host); err != nil {
		return res, fmt.Errorf("unreserve: %w", err)
	}
	return res, nil
}
