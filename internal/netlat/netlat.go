// Package netlat models the network between client and service.
//
// The paper ran each scenario twice: "client and service on same
// machine" and "client and service on different machines" (two
// identically configured Opterons, §4.1.3). This reproduction runs on
// one host, so the distributed scenarios are exercised through a
// deterministic latency/bandwidth model wrapped around real loopback
// connections: the full protocol path (TCP, HTTP, TLS, SOAP) still
// runs, and the model adds only the propagation and serialization
// delay a 2005 switched-LAN link would — preserving the paper's
// co-located vs distributed gap without fabricating its cause.
//
// The model sits on the connection (Profile.Conn), so every client
// that crosses the link pays by one rule: the container's transport
// wraps each connection it dials with it, and so does the WS-Eventing
// TCP channel.
package netlat

import (
	"net"
	"runtime"
	"time"
)

// Profile describes one link.
type Profile struct {
	// Name labels benchmark output rows.
	Name string
	// RTT is the round-trip propagation delay: half of it is paid at the
	// start of each flight of bytes (see Conn), so one request/response
	// exchange pays it once.
	RTT time.Duration
	// BandwidthBps is the per-direction link bandwidth in bytes/second;
	// zero means infinite (no serialization delay).
	BandwidthBps int64
}

// CoLocated is the same-machine profile: the raw loopback path.
var CoLocated = Profile{Name: "co-located"}

// LAN models the paper's testbed interconnect: switched 100 Mb
// Ethernet between two hosts (~0.4 ms RTT, 100 Mb/s each way).
var LAN = Profile{Name: "distributed", RTT: 400 * time.Microsecond, BandwidthBps: 100_000_000 / 8}

// Distributed reports whether the profile models a remote peer.
func (p Profile) Distributed() bool { return p.RTT > 0 || p.BandwidthBps > 0 }

func (p Profile) txDelay(n int64) time.Duration {
	if p.BandwidthBps <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(p.BandwidthBps) * float64(time.Second))
}

// Conn wraps a connection so it pays the profile's costs. A flight
// starts at the connection's first write and at each change of
// direction, and pays half an RTT; every read and write pays its
// bytes' serialization delay. A read pays after its bytes arrive, so
// the delay adds to the peer's processing time instead of overlapping
// it. One HTTP exchange so pays one RTT and the bytes of both messages,
// a pipelined run of requests pays the same once, and a channel that
// only writes (WS-Eventing's TCP deliveries) pays half an RTT once and
// then its bytes. Dials and TLS handshakes happen before the wrap and
// pay nothing. The connection is read and written by one goroutine at
// a time.
func (p Profile) Conn(c net.Conn) net.Conn {
	if !p.Distributed() {
		return c
	}
	return &conn{Conn: c, p: p}
}

// The directions of a connection's flight in progress (0 before its
// first).
const writing, reading = 1, 2

type conn struct {
	net.Conn
	p   Profile
	dir int
}

// flight returns the delay n bytes moving in direction dir pay.
func (c *conn) flight(dir int, n int) time.Duration {
	d := c.p.txDelay(int64(n))
	if c.dir != dir {
		d += c.p.RTT / 2
		c.dir = dir
	}
	return d
}

func (c *conn) Write(b []byte) (int, error) {
	sleep(c.flight(writing, len(b)))
	return c.Conn.Write(b)
}

func (c *conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		sleep(c.flight(reading, n))
	}
	return n, err
}

// coarseSleep is the slack left to the spin loop when a delay is long
// enough to park the goroutine first: time.Sleep on a stock Linux
// kernel overshoots sub-millisecond requests by roughly a timer tick
// (~1 ms), which would inflate a modeled 400 µs RTT to 2+ ms per
// exchange — a 5× distortion of exactly the quantity this package
// exists to model. Delays are therefore slept coarsely only for the
// amount that cannot overshoot past the deadline, and the remainder is
// spin-waited with cooperative yields so other goroutines (the peer's
// handler, the rest of a fan-out batch) keep running.
const coarseSleep = 2 * time.Millisecond

func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > 2*coarseSleep {
		time.Sleep(d - coarseSleep)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
