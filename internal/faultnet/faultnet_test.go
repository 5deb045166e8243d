package faultnet

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// echoServer accepts one connection, optionally writes a banner, then
// echoes everything back. Returns its address.
func echoServer(t *testing.T, banner string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if banner != "" {
					c.Write([]byte(banner))
				}
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

func startProxy(t *testing.T, target string) (*Proxy, *Link) {
	t.Helper()
	link := NewLink("test")
	p, err := NewProxy("127.0.0.1:0", target, link)
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, link
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func readN(t *testing.T, c net.Conn, n int, timeout time.Duration) ([]byte, error) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(timeout))
	defer c.SetReadDeadline(time.Time{})
	buf := make([]byte, n)
	got := 0
	for got < n {
		m, err := c.Read(buf[got:])
		got += m
		if err != nil {
			return buf[:got], err
		}
	}
	return buf, nil
}

func TestProxyPassThrough(t *testing.T) {
	addr := echoServer(t, "")
	p, _ := startProxy(t, addr)
	c := dial(t, p.Addr())
	msg := []byte("hello through the chaos layer")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readN(t, c, len(msg), 5*time.Second)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
}

func TestPartitionStallsThenHealDelivers(t *testing.T) {
	addr := echoServer(t, "")
	p, link := startProxy(t, addr)
	c := dial(t, p.Addr())

	// Warm the path so the proxied pair exists before the partition.
	if _, err := c.Write([]byte("warm")); err != nil {
		t.Fatalf("warm write: %v", err)
	}
	if _, err := readN(t, c, 4, 5*time.Second); err != nil {
		t.Fatalf("warm read: %v", err)
	}

	link.Partition(false)
	if _, err := c.Write([]byte("lost?")); err != nil {
		t.Fatalf("write during partition: %v", err)
	}
	if got, err := readN(t, c, 5, 300*time.Millisecond); err == nil {
		t.Fatalf("read delivered %q through a full partition", got)
	}

	// Partition is stall, not loss: heal delivers the held bytes.
	link.Heal()
	got, err := readN(t, c, 5, 5*time.Second)
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if string(got) != "lost?" {
		t.Fatalf("after heal got %q, want %q", got, "lost?")
	}
}

func TestAsymmetricPartition(t *testing.T) {
	// Server pushes an unsolicited frame; client's outbound is dropped.
	addr := echoServer(t, "banner")
	p, link := startProxy(t, addr)
	c := dial(t, p.Addr())
	if _, err := readN(t, c, 6, 5*time.Second); err != nil {
		t.Fatalf("banner: %v", err)
	}

	link.Partition(true) // AtoB (client->server) only
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The echo never comes back (request lost) ...
	if got, err := readN(t, c, 4, 300*time.Millisecond); err == nil {
		t.Fatalf("one-way partition echoed %q", got)
	}
	// ... but the reverse direction still delivers: heal only to check
	// the held request was stalled, not dropped.
	link.Heal()
	got, err := readN(t, c, 4, 5*time.Second)
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if string(got) != "ping" {
		t.Fatalf("after heal got %q, want %q", got, "ping")
	}
}

func TestInboundStillFlowsDuringOneWayDrop(t *testing.T) {
	// One-way drop of the dialer's outbound must not block server pushes.
	srvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srvLn.Close() })
	push := make(chan net.Conn, 1)
	go func() {
		c, err := srvLn.Accept()
		if err != nil {
			return
		}
		push <- c
	}()
	p, link := startProxy(t, srvLn.Addr().String())
	c := dial(t, p.Addr())
	// Establish the pair before partitioning.
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	sc := <-push
	t.Cleanup(func() { sc.Close() })
	if _, err := readN(t, sc, 1, 5*time.Second); err != nil {
		t.Fatalf("server read: %v", err)
	}
	link.Partition(true)
	if _, err := sc.Write([]byte("push")); err != nil {
		t.Fatalf("server push: %v", err)
	}
	got, err := readN(t, c, 4, 5*time.Second)
	if err != nil {
		t.Fatalf("client read during one-way drop: %v", err)
	}
	if string(got) != "push" {
		t.Fatalf("got %q, want %q", got, "push")
	}
}

func TestResetKillsEstablishedConns(t *testing.T) {
	addr := echoServer(t, "")
	p, link := startProxy(t, addr)
	c := dial(t, p.Addr())
	if _, err := c.Write([]byte("warm")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := readN(t, c, 4, 5*time.Second); err != nil {
		t.Fatalf("read: %v", err)
	}
	link.ResetConns()
	if _, err := readN(t, c, 1, 5*time.Second); err == nil {
		t.Fatal("read survived a connection reset")
	}
}

func TestDialIntoPartitionStallsUntilHeal(t *testing.T) {
	addr := echoServer(t, "banner")
	p, link := startProxy(t, addr)
	link.Partition(false)
	c := dial(t, p.Addr()) // TCP accepts; app handshake must stall
	if got, err := readN(t, c, 6, 300*time.Millisecond); err == nil {
		t.Fatalf("banner %q delivered through partition", got)
	}
	link.Heal()
	got, err := readN(t, c, 6, 5*time.Second)
	if err != nil {
		t.Fatalf("banner after heal: %v", err)
	}
	if string(got) != "banner" {
		t.Fatalf("got %q, want %q", got, "banner")
	}
}

func TestLatencyInjection(t *testing.T) {
	addr := echoServer(t, "")
	p, link := startProxy(t, addr)
	c := dial(t, p.Addr())
	// Warm up without latency.
	c.Write([]byte("w"))
	if _, err := readN(t, c, 1, 5*time.Second); err != nil {
		t.Fatalf("warm: %v", err)
	}
	link.SetLatency(AtoB, 60*time.Millisecond)
	start := time.Now()
	c.Write([]byte("x"))
	if _, err := readN(t, c, 1, 5*time.Second); err != nil {
		t.Fatalf("read: %v", err)
	}
	if rtt := time.Since(start); rtt < 60*time.Millisecond {
		t.Fatalf("RTT %v under injected 60ms latency", rtt)
	}
}
