package faultnet

import (
	"context"
	"net"
	"testing"
	"time"
)

// collector is a minimal frame server: every frame received on any accepted
// connection lands on C.
type collector struct {
	ln net.Listener
	C  chan []byte
}

func startCollector(t *testing.T) *collector {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{ln: ln, C: make(chan []byte, 64)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					frame, err := readFrame(conn)
					if err != nil {
						conn.Close()
						return
					}
					c.C <- frame
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return c
}

func (c *collector) addr() string { return c.ln.Addr().String() }

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func send(t *testing.T, conn net.Conn, frame []byte) {
	t.Helper()
	if err := writeFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
}

func recvFrame(t *testing.T, c *collector) []byte {
	t.Helper()
	select {
	case f := <-c.C:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within 5s")
		return nil
	}
}

func recvNone(t *testing.T, c *collector, within time.Duration) {
	t.Helper()
	select {
	case f := <-c.C:
		t.Fatalf("unexpected frame %q", f)
	case <-time.After(within):
	}
}

func TestProxyRelaysFrames(t *testing.T) {
	srv := startCollector(t)
	p, err := Listen(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	conn := dialProxy(t, p)
	send(t, conn, []byte("hello"))
	if got := recvFrame(t, srv); string(got) != "hello" {
		t.Fatalf("relayed frame = %q, want %q", got, "hello")
	}
	if p.Forwarded() != 1 || p.Dropped() != 0 {
		t.Fatalf("forwarded/dropped = %d/%d, want 1/0", p.Forwarded(), p.Dropped())
	}
}

// TestProxySetTarget re-points a proxy the way a restarted node does: a
// target-less proxy refuses relays, and after each SetTarget the next
// connection reaches the new target.
func TestProxySetTarget(t *testing.T) {
	p, err := Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	refused := dialProxy(t, p)
	_ = refused.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := refused.Read(make([]byte, 1)); err == nil {
		t.Fatal("a proxy without a target kept the connection open")
	}
	for _, frame := range []string{"first", "second"} {
		srv := startCollector(t)
		p.SetTarget(srv.addr())
		send(t, dialProxy(t, p), []byte(frame))
		if got := recvFrame(t, srv); string(got) != frame {
			t.Fatalf("relayed frame = %q, want %q", got, frame)
		}
	}
}

func TestProxyHookVerdicts(t *testing.T) {
	srv := startCollector(t)
	p, err := Listen(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	p.SetHook(func(dir Dir, frame []byte) Verdict {
		if dir != ToServer {
			return Pass
		}
		switch frame[0] {
		case 'D':
			return Drop
		case '2':
			return Dup
		case 'H':
			return Defer
		}
		return Pass
	})

	conn := dialProxy(t, p)
	send(t, conn, []byte("Dlost"))  // dropped
	send(t, conn, []byte("2twice")) // duplicated
	send(t, conn, []byte("Hheld"))  // deferred behind the next pass
	send(t, conn, []byte("plain"))  // passes, then flushes the held frame
	for _, want := range []string{"2twice", "2twice", "plain", "Hheld"} {
		if got := recvFrame(t, srv); string(got) != want {
			t.Fatalf("frame = %q, want %q", got, want)
		}
	}
	if p.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", p.Dropped())
	}
}

func TestProxySever(t *testing.T) {
	srv := startCollector(t)
	p, err := Listen(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	conn := dialProxy(t, p)
	send(t, conn, []byte("before"))
	recvFrame(t, srv)
	p.Sever()
	// The severed connection dies; a fresh dial relays again.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on severed connection succeeded")
	}
	conn2 := dialProxy(t, p)
	send(t, conn2, []byte("after"))
	if got := recvFrame(t, srv); string(got) != "after" {
		t.Fatalf("post-sever frame = %q, want %q", got, "after")
	}
}

func TestProxyPartition(t *testing.T) {
	srv := startCollector(t)
	p, err := Listen(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	p.SetPartitioned(true)
	// Dials succeed and writes vanish: a blackhole, not a refused port.
	conn := dialProxy(t, p)
	send(t, conn, []byte("void"))
	recvNone(t, srv, 300*time.Millisecond)

	p.SetPartitioned(false)
	// Healing killed the held connection; a new one relays.
	conn2 := dialProxy(t, p)
	send(t, conn2, []byte("healed"))
	if got := recvFrame(t, srv); string(got) != "healed" {
		t.Fatalf("post-heal frame = %q, want %q", got, "healed")
	}
}

func TestProcKillRestart(t *testing.T) {
	boots := 0
	p := &Proc{Boot: func() (func(context.Context) error, func(), error) {
		boots++
		return func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		}, func() {}, nil
	}}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if !p.Running() {
		t.Fatal("proc not running after Start")
	}
	if err := p.Start(); err == nil {
		t.Fatal("double Start succeeded")
	}
	p.Kill()
	if p.Running() {
		t.Fatal("proc running after Kill")
	}
	if err := p.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(p.Kill)
	if boots != 2 || !p.Running() {
		t.Fatalf("boots = %d, running = %v; want 2, true", boots, p.Running())
	}
}
