package gridbox

import (
	"fmt"
	"strconv"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/wsa"
	"altstacks/internal/wsn"
	"altstacks/internal/wsrf/rl"
	"altstacks/internal/wsrf/rp"
	"altstacks/internal/xmlutil"
)

// WSRFGridClient is the grid-user (and admin) client for the WSRF
// flavor of Grid-in-a-Box, built "in terms of meaningful application
// specific methods (like accountExists)" (§4.2.3).
type WSRFGridClient struct {
	C *container.Client
	// Base is the VO container's base URL.
	Base string
	// UserDN identifies the caller in unauthenticated scenarios; under
	// message security the signed certificate subject takes precedence
	// on the server side.
	UserDN string
}

func (g *WSRFGridClient) svc(path string) wsa.EPR { return wsa.NewEPR(g.Base + path) }

func (g *WSRFGridClient) withUser(body *xmlutil.Element) *xmlutil.Element {
	if g.UserDN != "" {
		body.Add(xmlutil.NewText(NS, "UserDN", g.UserDN))
	}
	return body
}

// AddAccount registers a user (administrative).
func (g *WSRFGridClient) AddAccount(dn string, privileges ...string) error {
	body := xmlutil.New(NS, "AddAccount").Add(xmlutil.NewText(NS, "DN", dn))
	for _, p := range privileges {
		body.Add(xmlutil.NewText(NS, "Privilege", p))
	}
	_, err := g.C.Call(g.svc("/account"), ActionAddAccount, body)
	return err
}

// AccountExists checks a user's VO membership.
func (g *WSRFGridClient) AccountExists(dn string) (bool, error) {
	body := xmlutil.New(NS, "AccountExists").Add(xmlutil.NewText(NS, "DN", dn))
	resp, err := g.C.Call(g.svc("/account"), ActionAccountExists, body)
	if err != nil {
		return false, err
	}
	return resp.TrimText() == "true", nil
}

// RemoveAccount removes a user (administrative).
func (g *WSRFGridClient) RemoveAccount(dn string) error {
	body := xmlutil.New(NS, "RemoveAccount").Add(xmlutil.NewText(NS, "DN", dn))
	_, err := g.C.Call(g.svc("/account"), ActionRemoveAccount, body)
	return err
}

// RegisterSite adds a computing site to the VO (administrative).
func (g *WSRFGridClient) RegisterSite(site Site) error {
	body := xmlutil.New(NS, "RegisterSite").Add(site.Element())
	_, err := g.C.Call(g.svc("/allocation"), ActionRegisterSite, body)
	return err
}

// GetAvailableResources lists unreserved sites with the application
// installed (paper Figure 5, step 1).
func (g *WSRFGridClient) GetAvailableResources(app string) ([]Site, error) {
	body := g.withUser(xmlutil.New(NS, "GetAvailableResources").
		Add(xmlutil.NewText(NS, "Application", app)))
	resp, err := g.C.Call(g.svc("/allocation"), ActionGetAvailable, body)
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

// MakeReservation reserves a site and returns the reservation
// WS-Resource's EPR (Figure 5, step 4).
func (g *WSRFGridClient) MakeReservation(host string) (wsa.EPR, error) {
	body := g.withUser(xmlutil.New(NS, "MakeReservation").
		Add(xmlutil.NewText(NS, "Host", host)))
	resp, err := g.C.Call(g.svc("/reservation"), ActionMakeRes, body)
	if err != nil {
		return wsa.EPR{}, err
	}
	return responseEPR(resp)
}

// CreateDirectory creates a data directory resource (Figure 5, step 5).
func (g *WSRFGridClient) CreateDirectory() (wsa.EPR, error) {
	body := g.withUser(xmlutil.New(NS, "CreateDirectory"))
	resp, err := g.C.Call(g.svc("/data"), ActionCreateDir, body)
	if err != nil {
		return wsa.EPR{}, err
	}
	return responseEPR(resp)
}

// UploadFile stages a file into a directory resource (Figure 5, step 7).
func (g *WSRFGridClient) UploadFile(dir wsa.EPR, name, content string) error {
	body := g.withUser(xmlutil.New(NS, "UploadFile").Add(
		xmlutil.NewText(NS, "FileName", name),
		xmlutil.NewText(NS, "FileContent", content),
	))
	_, err := g.C.Call(dir, ActionUpload, body)
	return err
}

// ListFiles surveys a directory resource through its File resource
// property ("this can be used to survey a job's output", §4.2.1).
func (g *WSRFGridClient) ListFiles(dir wsa.EPR) ([]string, error) {
	rpc := rp.Client{C: g.C}
	vals, err := rpc.GetProperty(dir, "File")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, v := range vals {
		out = append(out, v.TrimText())
	}
	return out, nil
}

// DownloadFile retrieves a staged or produced file.
func (g *WSRFGridClient) DownloadFile(dir wsa.EPR, name string) (string, error) {
	body := xmlutil.New(NS, "DownloadFile").Add(xmlutil.NewText(NS, "FileName", name))
	resp, err := g.C.Call(dir, ActionDownload, body)
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// DeleteFile removes a file from a directory resource.
func (g *WSRFGridClient) DeleteFile(dir wsa.EPR, name string) error {
	body := xmlutil.New(NS, "DeleteFile").Add(xmlutil.NewText(NS, "FileName", name))
	_, err := g.C.Call(dir, ActionDeleteFile, body)
	return err
}

// InstantiateJob starts a job against a reservation and data directory
// (Figure 5, step 9) and returns the job resource's EPR.
func (g *WSRFGridClient) InstantiateJob(spec JobSpec, reservation, dir wsa.EPR) (wsa.EPR, error) {
	body := g.withUser(xmlutil.New(NS, "StartJob").Add(
		spec.Element(),
		reservation.Element(NS, "ReservationEPR"),
		dir.Element(NS, "DataDirEPR"),
	))
	resp, err := g.C.Call(g.svc("/exec"), ActionStartJob, body)
	if err != nil {
		return wsa.EPR{}, err
	}
	return responseEPR(resp)
}

// JobStatus polls the job's Status resource property.
func (g *WSRFGridClient) JobStatus(job wsa.EPR) (JobStatus, error) {
	rpc := rp.Client{C: g.C}
	vals, err := rpc.GetProperty(job, "Status")
	if err != nil {
		return JobStatus{}, err
	}
	if len(vals) != 1 {
		return JobStatus{}, fmt.Errorf("gridbox: Status property has %d values", len(vals))
	}
	st := JobStatus{State: vals[0].ChildText(NS, "State")}
	st.ExitCode, _ = strconv.Atoi(vals[0].ChildText(NS, "ExitCode"))
	if ms, err := strconv.ParseInt(vals[0].ChildText(NS, "RunTimeMS"), 10, 64); err == nil {
		st.RunTime = time.Duration(ms) * time.Millisecond
	}
	return st, nil
}

// SubscribeJobExited subscribes to the completion notification for one
// job (Figure 5, step 11).
func (g *WSRFGridClient) SubscribeJobExited(job wsa.EPR) (core.EventStream, error) {
	jobID, ok := job.Property(NS, "JobID")
	if !ok {
		return nil, fmt.Errorf("gridbox: job EPR carries no JobID")
	}
	cons, err := wsn.NewConsumer(8)
	if err != nil {
		return nil, err
	}
	subEPR, err := wsn.Subscribe(g.C, g.svc("/exec"), cons.EPR(), wsn.SubscribeOptions{
		Topic:          wsn.Simple(TopicJobExited),
		MessageContent: fmt.Sprintf("/%s[JobID='%s']", TopicJobExited, jobID),
	})
	if err != nil {
		cons.Close()
		return nil, err
	}
	return core.NewStream(cons.Ch, func() error {
		err := wsn.Unsubscribe(g.C, subEPR)
		cons.Close()
		return err
	}), nil
}

// DestroyReservation releases a reservation explicitly (used by
// administrative tooling; in the normal workflow release is automatic
// after job completion).
func (g *WSRFGridClient) DestroyReservation(reservation wsa.EPR) error {
	rlc := rl.Client{C: g.C}
	return rlc.Destroy(reservation)
}

// DestroyJob kills (if needed) and removes the job resource.
func (g *WSRFGridClient) DestroyJob(job wsa.EPR) error {
	rlc := rl.Client{C: g.C}
	return rlc.Destroy(job)
}

// DestroyDirectory removes a directory resource and its files.
func (g *WSRFGridClient) DestroyDirectory(dir wsa.EPR) error {
	rlc := rl.Client{C: g.C}
	return rlc.Destroy(dir)
}

func responseEPR(resp *xmlutil.Element) (wsa.EPR, error) {
	el := resp.Child(wsa.NS, "EndpointReference")
	if el == nil {
		return wsa.EPR{}, fmt.Errorf("gridbox: response carries no EndpointReference")
	}
	return wsa.ParseEPR(el)
}

// RunJobResult summarizes a completed end-to-end workflow.
type RunJobResult struct {
	Job         wsa.EPR
	Dir         wsa.EPR
	Status      JobStatus
	OutputFiles []string
}

// RunJob executes the full Figure 5 workflow: discover an available
// site, reserve it, create and stage a data directory, start the job,
// await the completion notification, and survey the output. Cleanup
// of the job and directory resources is left to the caller (the paper
// has the client "cleanup both ExecService and DataService resources
// using the Destroy method").
func (g *WSRFGridClient) RunJob(spec JobSpec, stageIn map[string]string, timeout time.Duration) (RunJobResult, error) {
	var res RunJobResult
	sites, err := g.GetAvailableResources(spec.Application)
	if err != nil {
		return res, fmt.Errorf("get available: %w", err)
	}
	if len(sites) == 0 {
		return res, fmt.Errorf("gridbox: no available site runs %q", spec.Application)
	}
	reservation, err := g.MakeReservation(sites[0].Host)
	if err != nil {
		return res, fmt.Errorf("reserve: %w", err)
	}
	if res.Dir, err = g.CreateDirectory(); err != nil {
		return res, fmt.Errorf("create dir: %w", err)
	}
	for name, content := range stageIn {
		if err := g.UploadFile(res.Dir, name, content); err != nil {
			return res, fmt.Errorf("stage in %s: %w", name, err)
		}
	}
	if res.Job, err = g.InstantiateJob(spec, reservation, res.Dir); err != nil {
		return res, fmt.Errorf("start job: %w", err)
	}
	stream, err := g.SubscribeJobExited(res.Job)
	if err != nil {
		return res, fmt.Errorf("subscribe: %w", err)
	}
	//lint:ignore ogsalint/soapfault the job has exited, so the subscription's JobID filter never matches again; a failed unsubscribe must not fail a finished workflow
	defer stream.Cancel()
	// Wait for the asynchronous notification, with a status poll as a
	// safety net for jobs that finish before the subscription lands.
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
	if res.OutputFiles, err = g.ListFiles(res.Dir); err != nil {
		return res, fmt.Errorf("list output: %w", err)
	}
	return res, nil
}
