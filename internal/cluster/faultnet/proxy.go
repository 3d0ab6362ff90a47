// Package faultnet is a fault-injection harness for cluster tests: a
// frame-aware TCP proxy that sits in front of a node's listener and can
// drop, duplicate, reorder and sever the traffic flowing through it,
// plus a kill/restart helper for in-process nodes. Together they script the
// outages the cluster durability machinery exists for — leader crashes,
// network partitions, lossy and reordering links — inside ordinary Go
// tests, deterministic enough to assert exact counter values afterwards.
//
// The proxy understands the transport's outer framing ([4-byte big-endian
// length][sealed bytes]), so hooks see whole frames, never split ones; with
// the plain codec a hook can look inside a frame (transport.PeekSender +
// protocol.InspectFrame) and target, say, only the model-sync traffic of one
// group. The package deliberately imports nothing from the repository so any
// layer's tests can use it without an import cycle.
package faultnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrameSize mirrors the transport's frame bound; a larger length prefix
// marks a corrupt stream and severs the connection.
const maxFrameSize = 64 << 20

// Dir is the direction of one proxied frame.
type Dir int

const (
	// ToServer marks frames flowing from the dialing peer to the proxied
	// node. With the repository's TCP transport every frame flows this way —
	// responses travel on a separate connection the node dials itself — so
	// hooks normally only ever see ToServer.
	ToServer Dir = iota
	// ToClient marks frames flowing back from the proxied node to the
	// dialing peer.
	ToClient
)

// Verdict is a hook's decision for one frame.
type Verdict int

const (
	// Pass forwards the frame unchanged.
	Pass Verdict = iota
	// Drop discards the frame silently.
	Drop
	// Dup forwards the frame twice back to back.
	Dup
	// Defer holds the frame and flushes it after the next passed frame on
	// the same connection and direction — a deterministic reorder. Frames
	// still deferred when the connection closes are discarded.
	Defer
)

// Hook inspects one whole frame (the sealed bytes, without the length
// prefix) and decides its fate. Hooks run on the proxy's pump goroutines;
// they must not block. A nil hook passes everything.
type Hook func(dir Dir, frame []byte) Verdict

// Proxy is one fault-injectable TCP relay: it listens on its own loopback
// port and forwards whole frames to its target address, dialing the target
// per accepted connection. Point peers at Addr() instead of the node's real
// address and every frame to the node becomes interceptable.
type Proxy struct {
	ln net.Listener

	mu          sync.Mutex
	target      string
	hook        Hook
	partitioned bool
	conns       map[net.Conn]struct{} // both sides of every live relay
	held        map[net.Conn]struct{} // blackholed accepts while partitioned
	closed      bool
	pumps       sync.WaitGroup

	forwarded atomic.Int64
	dropped   atomic.Int64
}

// Listen starts a proxy on a fresh loopback port relaying to target
// (host:port; empty refuses every relay until SetTarget names one). The
// caller must Close it.
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
		held:   make(map[net.Conn]struct{}),
	}
	p.pumps.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address — the address to hand peers in
// place of the target's.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetHook installs (or, with nil, removes) the frame hook. Takes effect for
// the next frame on every connection.
func (p *Proxy) SetHook(h Hook) {
	p.mu.Lock()
	p.hook = h
	p.mu.Unlock()
}

// SetTarget re-points the proxy at a new target address, for a node that
// listens on a fresh port each time it boots. Live relays keep their old
// target; the next accepted connection dials the new one.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

// Forwarded returns the number of frames relayed (duplicates count twice).
// A frame counts before it is written, so a peer that has received it can
// never read a count that misses it; a failed write closes the relay, so a
// count the write did not deliver is the last one that relay makes.
func (p *Proxy) Forwarded() int64 { return p.forwarded.Load() }

// Dropped returns the number of frames discarded by hook verdicts.
func (p *Proxy) Dropped() int64 { return p.dropped.Load() }

// Sever closes every live relayed connection once; new connections relay
// normally. Peers see a clean TCP reset mid-conversation.
func (p *Proxy) Sever() {
	p.mu.Lock()
	p.closeConnsLocked()
	p.mu.Unlock()
}

// SetPartitioned toggles a blackhole partition. Partitioning severs every
// live relay and holds new accepts open without forwarding a byte — peers'
// dials succeed and their writes vanish, exactly like a network partition
// (fast connection errors would look like a crashed process instead).
// Healing closes the held connections so peers re-dial through a working
// relay.
func (p *Proxy) SetPartitioned(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.partitioned == on {
		return
	}
	p.partitioned = on
	if on {
		p.closeConnsLocked()
	} else {
		for c := range p.held {
			c.Close()
		}
		p.held = make(map[net.Conn]struct{})
	}
}

// Close shuts the proxy down: the listener, every relay and every held
// connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.closeConnsLocked()
	for c := range p.held {
		c.Close()
	}
	p.held = make(map[net.Conn]struct{})
	p.mu.Unlock()
	err := p.ln.Close()
	p.pumps.Wait()
	return err
}

func (p *Proxy) closeConnsLocked() {
	for c := range p.conns {
		c.Close()
	}
	p.conns = make(map[net.Conn]struct{})
}

func (p *Proxy) acceptLoop() {
	defer p.pumps.Done()
	for {
		src, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			src.Close()
			return
		}
		if p.partitioned {
			p.held[src] = struct{}{}
			p.mu.Unlock()
			continue
		}
		target := p.target
		p.mu.Unlock()

		dst, err := net.DialTimeout("tcp", target, 2*time.Second)
		if err != nil {
			// Target down: refuse the relay immediately so the peer's send
			// fails fast instead of hanging.
			src.Close()
			continue
		}
		p.mu.Lock()
		if p.closed || p.partitioned {
			p.mu.Unlock()
			src.Close()
			dst.Close()
			continue
		}
		p.conns[src] = struct{}{}
		p.conns[dst] = struct{}{}
		p.pumps.Add(2)
		p.mu.Unlock()
		go p.pump(ToServer, src, dst)
		go p.pump(ToClient, dst, src)
	}
}

// pump relays whole frames src → dst through the hook until either side
// closes, then closes both (a relay is all-or-nothing).
func (p *Proxy) pump(dir Dir, src, dst net.Conn) {
	defer p.pumps.Done()
	defer func() {
		src.Close()
		dst.Close()
		p.mu.Lock()
		delete(p.conns, src)
		delete(p.conns, dst)
		p.mu.Unlock()
	}()
	var deferred [][]byte
	for {
		frame, err := readFrame(src)
		if err != nil {
			return
		}
		p.mu.Lock()
		hook := p.hook
		p.mu.Unlock()
		verdict := Pass
		if hook != nil {
			verdict = hook(dir, frame)
		}
		switch verdict {
		case Drop:
			p.dropped.Add(1)
			continue
		case Defer:
			deferred = append(deferred, frame)
			continue
		case Dup:
			p.forwarded.Add(2)
			if writeFrame(dst, frame) != nil || writeFrame(dst, frame) != nil {
				return
			}
		default:
			p.forwarded.Add(1)
			if writeFrame(dst, frame) != nil {
				return
			}
		}
		for _, f := range deferred {
			p.forwarded.Add(1)
			if writeFrame(dst, f) != nil {
				return
			}
		}
		deferred = nil
	}
}

var errFrameTooLarge = errors.New("faultnet: frame exceeds size bound")

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrameSize {
		return nil, errFrameTooLarge
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

func writeFrame(w io.Writer, frame []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}
