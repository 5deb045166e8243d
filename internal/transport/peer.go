package transport

import (
	"bufio"
	"net"
	"sync"
	"time"

	"ballsintoleaves/internal/wire"
)

// Loopback and Serve run the paper's synchronous lock-step rounds. The
// replication layer (internal/namesvc/repl) needs something different: a
// long-lived, FIFO, length-prefixed message stream between two named
// coordinator processes, with no round structure and no coordinator in
// the middle. Peer is that primitive: a thin framed pipe over one TCP
// connection, sharing the wire framing (and its torn/oversized-frame
// rejection) with the round transport.
//
// Concurrency contract: one goroutine may call Send/Flush while another
// calls Recv. Send is internally locked, so multiple writers are safe;
// Recv is not, and must stay on a single goroutine.

// PeerMaxFrame bounds a single peer message. Replication snapshots carry
// a whole shard image (holder array + journal window), so the bound is
// far larger than the round transport's.
const PeerMaxFrame = 1 << 26

// Peer is one end of a framed peer link.
type Peer struct {
	conn net.Conn
	br   *bufio.Reader
	rbuf []byte

	mu sync.Mutex // guards bw
	bw *bufio.Writer
}

// NewPeer wraps an established connection (either side) as a peer link.
func NewPeer(conn net.Conn) *Peer {
	return &Peer{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
}

// DialPeer opens a peer link to addr. timeout bounds the dial only;
// per-message deadlines are the caller's business via SetReadDeadline.
func DialPeer(addr string, timeout time.Duration) (*Peer, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewPeer(conn), nil
}

// Send frames body and buffers it; call Flush to push buffered frames to
// the wire. deadline, when nonzero, bounds the write.
func (p *Peer) Send(body []byte, deadline time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.SetWriteDeadline(deadline)
	return wire.WriteFrame(p.bw, body)
}

// Flush pushes buffered frames to the wire.
func (p *Peer) Flush(deadline time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.SetWriteDeadline(deadline)
	return p.bw.Flush()
}

// SendNow frames body and flushes it in one step.
func (p *Peer) SendNow(body []byte, deadline time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.SetWriteDeadline(deadline)
	if err := wire.WriteFrame(p.bw, body); err != nil {
		return err
	}
	return p.bw.Flush()
}

// Recv blocks for the next message. The returned slice is reused by the
// following Recv; the caller must copy anything it keeps. deadline, when
// nonzero, bounds the read (a zero deadline blocks indefinitely, until
// the link drops).
func (p *Peer) Recv(deadline time.Time) ([]byte, error) {
	p.conn.SetReadDeadline(deadline)
	body, err := wire.ReadFrame(p.br, p.rbuf, PeerMaxFrame)
	if err != nil {
		return nil, err
	}
	p.rbuf = body
	return body, nil
}

// Pending reports whether bytes of a further message are already buffered
// locally — a Recv would make progress without touching the network. The
// receive goroutine uses it to coalesce work (apply a whole burst, then
// acknowledge once) without ever blocking on a quiet link.
func (p *Peer) Pending() bool { return p.br.Buffered() > 0 }

// RemoteAddr reports the other end's address.
func (p *Peer) RemoteAddr() net.Addr { return p.conn.RemoteAddr() }

// Close severs the link. Safe to call concurrently with Send/Recv; both
// will return errors afterwards.
func (p *Peer) Close() error { return p.conn.Close() }
