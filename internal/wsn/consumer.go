package wsn

import (
	"sync/atomic"

	"altstacks/internal/container"
	"altstacks/internal/core"
	"altstacks/internal/obs"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// wsnConsumerDroppedTotal mirrors Consumer.Dropped across every
// consumer, as ogsa_wse_sink_dropped_total does for the wse sinks.
var wsnConsumerDroppedTotal = obs.NewCounter("ogsa_wsn_consumer_dropped_total", "",
	"notifications dropped by saturated consumers")

// Consumer is the client-side notification endpoint — the "custom
// HTTP server that clients include" in WSRF.NET (paper §4.1.3). It
// runs its own minimal container and hands each received notification
// to Ch as a core.Event; a raw delivery is the bare payload with an
// empty Topic.
//
// Overflow is drop-with-count, as on the wse sinks: when Ch is full the
// notification is discarded, Dropped is incremented, and the delivery
// is still acknowledged, so a blocked consumer never wedges the
// producer's fan-out.
type Consumer struct {
	C  *container.Container
	Ch chan core.Event
	// Dropped counts notifications discarded because Ch was full.
	Dropped atomic.Int64
}

// NewConsumer starts a consumer endpoint on a fresh loopback port.
func NewConsumer(buffer int) (*Consumer, error) {
	cons := &Consumer{
		C:  container.New(container.SecurityNone),
		Ch: make(chan core.Event, buffer),
	}
	cons.C.Register(&container.Service{
		Path:    "/consumer",
		Actions: map[string]container.ActionFunc{ActionNotify: cons.onNotify},
	})
	if _, err := cons.C.Start(); err != nil {
		return nil, err
	}
	return cons, nil
}

// EPR returns the consumer's endpoint reference for Subscribe calls.
func (c *Consumer) EPR() wsa.EPR { return c.C.EPR("/consumer") }

// Close shuts the endpoint down.
func (c *Consumer) Close() { c.C.Close() }

// onNotify handles both wrapped <wsnt:Notify> deliveries and raw
// payload deliveries on the same action.
func (c *Consumer) onNotify(ctx *container.Ctx) (*xmlutil.Element, error) {
	body := ctx.Envelope.Body
	if body == nil {
		return xmlutil.New(NSNT, "NotifyResponse"), nil
	}
	if body.Name.Space == NSNT && body.Name.Local == "Notify" {
		for _, nm := range body.ChildrenNamed(NSNT, "NotificationMessage") {
			n := core.Event{Topic: nm.ChildText(NSNT, "Topic")}
			if msg := nm.Child(NSNT, "Message"); msg != nil && len(msg.Children) > 0 {
				n.Message = msg.Children[0].Clone()
			}
			c.push(n)
		}
	} else {
		c.push(core.Event{Message: body.Clone()})
	}
	return xmlutil.New(NSNT, "NotifyResponse"), nil
}

func (c *Consumer) push(n core.Event) {
	select {
	case c.Ch <- n:
	default:
		c.Dropped.Add(1)
		wsnConsumerDroppedTotal.Inc()
	}
}
