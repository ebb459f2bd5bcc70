// Package core is the stack-neutral heart of the reproduction: the
// paper's contribution is not either protocol stack but the
// demonstration that OGSA-style Grid services can be built on both —
// "there could be alternative software stacks for OGSA-based Grids".
//
// core therefore defines (a) the Stack identifiers, (b) the
// stack-neutral client interfaces that both the WSRF/WSN counter and
// the WS-Transfer/WS-Eventing counter satisfy (what §5's "switching
// stacks" discussion calls building a client against one stack and
// re-aiming it) and the one notification Event both stacks' consumer
// endpoints deliver, and (c) the experiment Fixture that assembles the
// paper's six measurement scenarios (3 security modes × co-located /
// distributed) with shared PKI, TLS, and link models.
package core

import (
	"fmt"

	"altstacks/internal/certs"
	"altstacks/internal/container"
	"altstacks/internal/netlat"
	"altstacks/internal/wsa"
	"altstacks/internal/wssec"
	"altstacks/internal/xmlutil"
)

// Stack identifies one of the paper's two software stacks.
type Stack string

const (
	// StackWSRF is WSRF + WS-Notification (the WSRF.NET analog).
	StackWSRF Stack = "WSRF/WS-Notification"
	// StackWST is WS-Transfer + WS-Eventing.
	StackWST Stack = "WS-Transfer/WS-Eventing"
)

// ResourceClient is the stack-neutral view of client-managed remote
// state: the four verbs the hello-world comparison (§4.1) exercises on
// both stacks. WSRF spells them Create/GetResourceProperty/
// SetResourceProperties/Destroy; WS-Transfer spells them
// Create/Get/Put/Delete; "the functionality of these operations mostly
// overlaps" (§4.1.2).
type ResourceClient interface {
	// Create instantiates a resource from an initial representation.
	Create(initial *xmlutil.Element) (wsa.EPR, error)
	// Get fetches the resource's current representation.
	Get(resource wsa.EPR) (*xmlutil.Element, error)
	// Set replaces the resource's representation.
	Set(resource wsa.EPR, rep *xmlutil.Element) error
	// Destroy removes the resource.
	Destroy(resource wsa.EPR) error
}

// Event is one asynchronous notification, stack-neutrally: what every
// consumer endpoint of both stacks (wsn.Consumer, wse.HTTPSink,
// wse.TCPSink) delivers on its channel.
type Event struct {
	// Topic is the published topic path; a WSN raw delivery, which
	// carries the bare payload, has none.
	Topic   string
	Message *xmlutil.Element
}

// EventStream is a live subscription: events arrive on Events until
// Cancel is called.
type EventStream interface {
	Events() <-chan Event
	Cancel() error
}

// NewStream returns the EventStream over a consumer endpoint's
// channel. cancel unsubscribes and closes the endpoint; ch is never
// closed, so after Cancel it just stops receiving.
func NewStream(ch <-chan Event, cancel func() error) EventStream {
	return stream{ch, cancel}
}

type stream struct {
	ch     <-chan Event
	cancel func() error
}

func (s stream) Events() <-chan Event { return s.ch }
func (s stream) Cancel() error        { return s.cancel() }

// Fixture bundles the security material and link model for one
// measurement scenario. Containers and clients built from the same
// fixture share a CA, so signed traffic verifies end to end.
type Fixture struct {
	Mode Stack // informational; fixtures are stack-agnostic
	Sec  container.SecurityMode
	Link netlat.Profile

	CA       *certs.Authority
	ServerID *certs.Identity
	ClientID *certs.Identity
}

// NewFixture generates PKI material for a scenario. Generation is
// expensive (two RSA keypairs); callers cache fixtures across runs.
func NewFixture(sec container.SecurityMode, link netlat.Profile) (*Fixture, error) {
	f := &Fixture{Sec: sec, Link: link}
	var err error
	if f.CA, err = certs.NewAuthority(); err != nil {
		return nil, err
	}
	if f.ServerID, err = f.CA.Issue("grid-service", "127.0.0.1", "localhost"); err != nil {
		return nil, err
	}
	if f.ClientID, err = f.CA.Issue("grid-client"); err != nil {
		return nil, err
	}
	return f, nil
}

// NewContainer builds a container configured for the scenario.
func (f *Fixture) NewContainer() *container.Container {
	c := container.New(f.Sec)
	switch f.Sec {
	case container.SecurityTLS:
		c.TLS = f.CA.ServerTLS(f.ServerID)
	case container.SecuritySign:
		c.Signer = wssec.NewSigner(f.ServerID)
		c.Verifier = wssec.NewVerifier(f.CA.Pool())
	}
	return c
}

// NewClient builds a client-side proxy for the scenario (crossing the
// fixture's link model).
func (f *Fixture) NewClient() *container.Client {
	cfg := container.ClientConfig{Mode: f.Sec, Link: f.Link}
	switch f.Sec {
	case container.SecurityTLS:
		cfg.TLS = f.CA.ClientTLS()
	case container.SecuritySign:
		cfg.Signer = wssec.NewSigner(f.ClientID)
		cfg.Verifier = wssec.NewVerifier(f.CA.Pool())
	}
	return container.NewClient(cfg)
}

// NewLocalClient builds a proxy for service-to-service calls inside
// the VO (no link model: the paper co-locates a VO's core services),
// signing with the server identity under SecuritySign.
func (f *Fixture) NewLocalClient() *container.Client {
	cfg := container.ClientConfig{Mode: f.Sec}
	switch f.Sec {
	case container.SecurityTLS:
		cfg.TLS = f.CA.ClientTLS()
	case container.SecuritySign:
		cfg.Signer = wssec.NewSigner(f.ServerID)
		cfg.Verifier = wssec.NewVerifier(f.CA.Pool())
	}
	return container.NewClient(cfg)
}

// NewNotifyClient builds the proxy notification producers deliver
// through: it signs as the service (the producer is server-side) but
// crosses the scenario's link, because consumers live with the client.
func (f *Fixture) NewNotifyClient() *container.Client {
	cfg := container.ClientConfig{Mode: f.Sec, Link: f.Link}
	switch f.Sec {
	case container.SecurityTLS:
		cfg.TLS = f.CA.ClientTLS()
	case container.SecuritySign:
		cfg.Signer = wssec.NewSigner(f.ServerID)
		cfg.Verifier = wssec.NewVerifier(f.CA.Pool())
	}
	return container.NewClient(cfg)
}

// Scenario names one of the paper's six hello-world measurement
// scenarios (§4.1.3).
type Scenario struct {
	// Index is the paper's scenario number, 1-6.
	Index int
	Sec   container.SecurityMode
	Link  netlat.Profile
}

// Name renders the scenario as the figures caption it.
func (s Scenario) Name() string {
	return fmt.Sprintf("%s/%s", s.Sec, s.Link.Name)
}

// Scenarios lists the six scenarios in the paper's order:
//  1. no security, same machine        4. no security, different machines
//  2. X.509 signing, same machine      5. X.509 signing, different machines
//  3. https, same machine              6. https, different machines
func Scenarios() []Scenario {
	return []Scenario{
		{1, container.SecurityNone, netlat.CoLocated},
		{2, container.SecuritySign, netlat.CoLocated},
		{3, container.SecurityTLS, netlat.CoLocated},
		{4, container.SecurityNone, netlat.LAN},
		{5, container.SecuritySign, netlat.LAN},
		{6, container.SecurityTLS, netlat.LAN},
	}
}
