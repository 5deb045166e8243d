package faultnet

import (
	"io"
	"net"
	"sync"
	"time"
)

// Proxy is an in-process TCP chaos proxy for one directed network link:
// it accepts on its own address, dials the target, and pumps bytes both
// ways through the link's fault state. AtoB is the direction from the
// accepting side toward the target (the bytes the dialing endpoint
// originates), BtoA the target's responses.
//
// A dial into a proxy whose AtoB direction is dropped is accepted at the
// TCP level (the listener's backlog completes the handshake — true SYN
// loss cannot be emulated above the socket API) but held before the
// target is dialed, so the application-level handshake stalls exactly
// like a half-open connection.
type Proxy struct {
	link   *Link
	target string
	ln     net.Listener

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewProxy starts a chaos proxy for link on listen (host:port, port 0
// picks a free one) forwarding to target.
func NewProxy(listen, target string, link *Link) (*Proxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{link: link, target: target, ln: ln}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting and tears down every proxied connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.link.ResetConns()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		cc, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.handle(cc)
	}
}

// handle services one proxied connection: gate the target dial on the
// forward direction (half-open model), then pump both directions through
// the link.
func (p *Proxy) handle(cc net.Conn) {
	defer p.wg.Done()
	gc := &gatedConn{link: p.link, close: func() { cc.Close() }}
	p.link.register(gc)
	if err := p.link.gate(AtoB, 0, gc); err != nil {
		p.link.unregister(gc)
		cc.Close()
		return
	}
	tc, err := net.DialTimeout("tcp", p.target, 10*time.Second)
	if err != nil {
		p.link.unregister(gc)
		cc.Close()
		return
	}
	// Re-register the pair under one handle so a reset kills both sides.
	p.link.unregister(gc)
	pair := &gatedConn{link: p.link}
	pair.close = func() {
		cc.Close()
		tc.Close()
	}
	p.link.register(pair)
	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() {
		defer pumps.Done()
		p.pump(cc, tc, AtoB, pair)
	}()
	go func() {
		defer pumps.Done()
		p.pump(tc, cc, BtoA, pair)
	}()
	pumps.Wait()
	p.link.unregister(pair)
	pair.kill()
}

// pump copies src to dst, gating every chunk through the link's dir
// state. A partitioned direction stalls here: bytes already read are held
// (TCP-retransmit model) and delivered on heal; a reset kills the pair.
func (p *Proxy) pump(src, dst net.Conn, dir Dir, pair *gatedConn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if gerr := p.link.gate(dir, n, pair); gerr != nil {
				pair.kill()
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				pair.kill()
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				pair.kill()
				return
			}
			// Half-close: propagate EOF but keep the reverse pump alive.
			if cw, ok := dst.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
			} else {
				pair.kill()
			}
			return
		}
	}
}
