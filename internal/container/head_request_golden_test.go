package container_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"strconv"
	"testing"

	"altstacks/internal/container"
	"altstacks/internal/faultinject"
	"altstacks/internal/netlat"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// TestGoldenRequestHead captures the request head Client writes for an
// unsigned exchange on a raw listener, which answers with a plain
// reply, through each entry point: Call, the one-way Deliver, and a
// per-message Deliver, which asks the peer to close. Whatever wraps the
// client's connections or its transport writes the same head: a
// faultinject harness with no plan, a LAN link, and an
// http.RoundTripper around the transport.
func TestGoldenRequestHead(t *testing.T) {
	body := xmlutil.NewText("urn:echo", "Echo", "hello")
	call := func(c *container.Client, epr wsa.EPR) error {
		_, err := c.Call(epr, "urn:echo/Echo", body)
		return err
	}
	deliver := func(mode container.DeliveryMode) func(*container.Client, wsa.EPR) error {
		return func(c *container.Client, epr wsa.EPR) error {
			return c.ForDelivery(mode).Deliver(context.Background(), epr, "urn:echo/Echo", nil, body)
		}
	}
	plain := func() *container.Client { return container.NewClient(container.ClientConfig{}) }
	for _, tc := range []struct {
		name, golden string
		client       func() *container.Client
		call         func(*container.Client, wsa.EPR) error
	}{
		{"Call", "request-head.txt", plain, call},
		{"Deliver", "request-head.txt", plain, deliver(container.DeliveryPooled)},
		{"DeliverPerMessage", "request-head-close.txt", plain, deliver(container.DeliveryPerMessage)},
		{"FaultInjected", "request-head.txt", func() *container.Client {
			return faultinject.New().WrapClient(plain())
		}, deliver(container.DeliveryPooled)},
		{"LAN", "request-head.txt", func() *container.Client {
			return container.NewClient(container.ClientConfig{Link: netlat.LAN})
		}, call},
		{"Metered", "request-head.txt", func() *container.Client {
			c := plain()
			c.HTTP.Transport = container.PassThrough{Base: c.HTTP.Transport}
			return c
		}, call},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, heads := captureRequestHead(t)
			epr := wsa.NewEPR("http://"+addr+"/consumer").WithProperty("urn:svc", "SubID", "s-42")
			if err := tc.call(tc.client(), epr); err != nil {
				t.Fatal(err)
			}
			got := <-heads
			if got.err != nil {
				t.Fatal(got.err)
			}
			container.CheckHead(t, tc.golden, bytes.ReplaceAll(got.head, []byte(addr), []byte("127.0.0.1:PORT")))
		})
	}
}

type capturedHead struct {
	head []byte
	err  error
}

// captureRequestHead listens for one exchange, answers it with a plain
// reply, and sends the request head it read.
func captureRequestHead(t *testing.T) (addr string, heads <-chan capturedHead) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	const reply = `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><r:Ok xmlns:r="urn:echo"/></soap:Body></soap:Envelope>`
	ch := make(chan capturedHead, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- capturedHead{err: err}
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		head, err := container.ReadHead(br)
		if err == nil {
			_, err = io.CopyN(io.Discard, br, int64(container.ContentLength(head)))
		}
		if err == nil {
			_, err = io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: "+
				strconv.Itoa(len(reply))+"\r\n\r\n"+reply)
		}
		ch <- capturedHead{head, err}
	}()
	return ln.Addr().String(), ch
}
