// Ablation benchmarks: each isolates one design choice the paper's
// analysis leans on, so its contribution to the figures can be read
// directly.
//
//	AblationResourceCache      — WSRF write-through cache on/off (the Set gap)
//	AblationDeliveryChannel    — WS-Eventing TCP vs HTTP push (the Notify gap)
//	AblationSigning            — X.509 sign/verify per message (the Fig 4 inflation)
//	AblationDatabaseCost       — zero-cost store vs the Xindice profile
//	AblationCanonicalization   — plain marshal vs canonical form (signing input)
//
// Run: go test -bench=Ablation -benchmem
package altstacks_test

import (
	"fmt"
	"testing"
	"time"

	"altstacks/internal/certs"
	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/wse"
	"altstacks/internal/wsrf"
	"altstacks/internal/wssec"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// BenchmarkAblationResourceCache isolates the write-through resource
// cache: the same load-modify-save cycle against the same cost-modeled
// store, with and without the cache. The delta is the
// read-before-write the paper credits for WSRF.NET's faster Set.
func BenchmarkAblationResourceCache(b *testing.B) {
	for _, cached := range []bool{false, true} {
		b.Run(fmt.Sprintf("cache=%v", cached), func(b *testing.B) {
			h := &wsrf.Home{
				DB:           xmldb.NewMemory(xmldb.XindiceProfile),
				Collection:   "counters",
				RefSpace:     "urn:c",
				RefLocal:     "ID",
				Endpoint:     func() string { return "http://local/counter" },
				CacheEnabled: cached,
			}
			epr, err := h.Create(xmlutil.New("urn:c", "S").Add(xmlutil.NewText("urn:c", "cv", "0")))
			if err != nil {
				b.Fatal(err)
			}
			id, _ := epr.Property("urn:c", "ID")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := h.Mutate(id, func(r *wsrf.Resource) error {
					r.State.Child("urn:c", "cv").Text = fmt.Sprint(i)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDeliveryChannel isolates the notification delivery
// channel: the identical event published to one subscriber over the
// Plumbwork persistent-TCP path vs HTTP push. This is the paper's
// "TCP vs. HTTP issue" with everything else held constant.
func BenchmarkAblationDeliveryChannel(b *testing.B) {
	type world struct {
		src     *wse.Source
		receive func() error
		close   func()
	}
	setup := func(b *testing.B, mode string) world {
		c := container.New(container.SecurityNone)
		store, err := wse.NewStore("")
		if err != nil {
			b.Fatal(err)
		}
		client := container.NewClient(container.ClientConfig{})
		src := wse.NewSource(store, func() string { return c.BaseURL() + "/mgr" }, client)
		c.Register(src.SourceService("/events"))
		c.Register(src.ManagerService("/mgr"))
		if _, err := c.Start(); err != nil {
			b.Fatal(err)
		}
		w := world{src: src}
		switch mode {
		case "tcp":
			sink, err := wse.NewTCPSink(64)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wse.Subscribe(client, c.EPR("/events"), wse.SubscribeOptions{
				NotifyTo: wsa.NewEPR(sink.Addr()), Mode: wse.DeliveryModeTCP,
			}); err != nil {
				b.Fatal(err)
			}
			w.receive = func() error { return awaitEvent(sink.Ch) }
			w.close = func() { sink.Close(); src.TCP.Close(); c.Close() }
		case "http":
			sink, err := wse.NewHTTPSink(64)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wse.Subscribe(client, c.EPR("/events"), wse.SubscribeOptions{
				NotifyTo: sink.EPR(),
			}); err != nil {
				b.Fatal(err)
			}
			w.receive = func() error { return awaitEvent(sink.Ch) }
			w.close = func() { sink.Close(); src.TCP.Close(); c.Close() }
		}
		return w
	}
	payload := xmlutil.New("urn:e", "Ev").Add(xmlutil.NewText("urn:e", "V", "1"))
	for _, mode := range []string{"tcp", "http"} {
		b.Run(mode, func(b *testing.B) {
			w := setup(b, mode)
			defer w.close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := w.src.Publish("t", payload); err != nil || n != 1 {
					b.Fatalf("publish: n=%d err=%v", n, err)
				}
				if err := w.receive(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func awaitEvent(ch <-chan core.Event) error {
	select {
	case <-ch:
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("event never arrived")
	}
}

// BenchmarkAblationSigning isolates WS-Security processing: signing an
// envelope and verifying it, the per-message constant that produces
// Figure 4's across-the-board inflation.
func BenchmarkAblationSigning(b *testing.B) {
	ca, err := certs.NewAuthority()
	if err != nil {
		b.Fatal(err)
	}
	id, err := ca.Issue("bench")
	if err != nil {
		b.Fatal(err)
	}
	signer := wssec.NewSigner(id)
	verifier := wssec.NewVerifier(ca.Pool())
	body := xmlutil.New("urn:c", "Set").Add(xmlutil.NewText("urn:c", "cv", "5"))

	b.Run("sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := soap.New(body.Clone())
			if err := signer.Sign(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sign+verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := soap.New(body.Clone())
			if err := signer.Sign(env); err != nil {
				b.Fatal(err)
			}
			parsed, err := soap.Parse(env.Marshal())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := verifier.Verify(parsed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDatabaseCost isolates the backend: the same
// document read against the zero-cost store and the Xindice profile —
// quantifying "both counter implementations' performance is dominated
// by Xindice".
func BenchmarkAblationDatabaseCost(b *testing.B) {
	doc := xmlutil.New("urn:c", "Counter").Add(xmlutil.NewText("urn:c", "Value", "1"))
	for _, prof := range []struct {
		name string
		cost xmldb.CostModel
	}{
		{"zero-cost", xmldb.CostModel{}},
		{"xindice-profile", xmldb.XindiceProfile},
	} {
		b.Run(prof.name, func(b *testing.B) {
			db := xmldb.NewMemory(prof.cost)
			if err := db.Create("c", "1", doc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Get("c", "1"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCanonicalization compares plain serialization with
// the canonical form the signature layer digests.
func BenchmarkAblationCanonicalization(b *testing.B) {
	// A representative signed-message body with namespaces and attributes.
	doc := xmlutil.New("urn:gb", "StartJob").
		SetAttr("", "mode", "batch").
		Add(
			xmlutil.New("urn:gb", "JobSpec").Add(
				xmlutil.NewText("urn:gb", "Application", "blast"),
				xmlutil.NewText("urn:gb", "Arg", "-db"),
				xmlutil.NewText("urn:gb", "Arg", "nr"),
			),
			wsa.NewEPR("http://vo/reservation").
				WithProperty("urn:gb", "ReservationID", "r-123").
				Element("urn:gb", "ReservationEPR"),
		)
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = doc.Marshal()
		}
	})
	b.Run("canonical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = doc.Canonical()
		}
	})
}
