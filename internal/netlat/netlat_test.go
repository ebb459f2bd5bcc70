package netlat

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func TestProfileDistributed(t *testing.T) {
	if CoLocated.Distributed() {
		t.Fatal("CoLocated reports distributed")
	}
	if !LAN.Distributed() {
		t.Fatal("LAN reports co-located")
	}
	if !(Profile{RTT: time.Millisecond}).Distributed() {
		t.Fatal("RTT-only profile reports co-located")
	}
	if !(Profile{BandwidthBps: 1}).Distributed() {
		t.Fatal("bandwidth-only profile reports co-located")
	}
}

func TestTxDelay(t *testing.T) {
	p := Profile{BandwidthBps: 1_000_000} // 1 MB/s
	if d := p.txDelay(1_000_000); d != time.Second {
		t.Fatalf("1MB at 1MB/s = %v, want 1s", d)
	}
	if d := p.txDelay(0); d != 0 {
		t.Fatalf("0 bytes = %v", d)
	}
	if d := (Profile{}).txDelay(1 << 30); d != 0 {
		t.Fatalf("infinite bandwidth = %v", d)
	}
}

// echoConn dials a loopback peer that echoes what it reads.
func echoConn(t *testing.T) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn) //nolint:errcheck
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return raw
}

// TestConnChargesEachFlight: an exchange, a write and then a read of
// the reply, pays one RTT; requests written back to back before their
// replies are read (a pipelined run) pay it once between them.
func TestConnChargesEachFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const rtt = 40 * time.Millisecond
	c := Profile{RTT: rtt}.Conn(echoConn(t))
	exchange := func(requests int) time.Duration {
		t0 := time.Now()
		for i := 0; i < requests; i++ {
			if _, err := c.Write([]byte("ping")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := io.ReadFull(c, make([]byte, 4*requests)); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	for _, requests := range []int{1, 1, 3} {
		if d := exchange(requests); d < rtt || d >= 2*rtt {
			t.Fatalf("%d requests then their replies took %v, want one RTT (%v)", requests, d, rtt)
		}
	}
}

// TestConnChargesBytes: every byte pays serialization delay, written or
// read.
func TestConnChargesBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// 100 KB at 1 MB/s ≈ 100 ms each way.
	c := Profile{BandwidthBps: 1_000_000}.Conn(echoConn(t))
	msg := []byte(strings.Repeat("x", 100_000))
	t0 := time.Now()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, msg); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 190*time.Millisecond {
		t.Fatalf("100KB each way at 1MB/s took %v, want ≥190ms", d)
	}
}

func TestConnWrapping(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, conn) //nolint:errcheck
		conn.Close()
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p := Profile{RTT: 40 * time.Millisecond}
	wrapped := p.Conn(raw)
	t0 := time.Now()
	if _, err := wrapped.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	first := time.Since(t0)
	t0 = time.Now()
	if _, err := wrapped.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	second := time.Since(t0)
	if first < 15*time.Millisecond {
		t.Fatalf("first write %v: half-RTT not applied", first)
	}
	if second > first {
		t.Fatalf("second write %v slower than first %v: RTT charged repeatedly", second, first)
	}
	wrapped.Close()
	<-done
}

func TestConnPassthroughCoLocated(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := CoLocated.Conn(c1); got != c1 {
		t.Fatal("co-located profile should not wrap connections")
	}
}
