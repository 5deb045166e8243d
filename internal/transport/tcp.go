package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
	"ballsintoleaves/internal/wire"
)

// The TCP transport is a star: a coordinator owns the listening socket,
// admits exactly n participants, and relays lock-step rounds between them
// over length-prefixed frames. The coordinator is not a participant — it
// runs no protocol state machine — but it is the component that renders
// the paper's failure model onto real connections:
//
//   - a connection that drops before the round's payload arrived is a
//     crash with no final message;
//   - a connection that delivered its payload and then drops is a crash
//     whose final broadcast reached the coordinator and is relayed intact
//     (the adversary-chosen subset is "everyone");
//   - scripted fault injection (NetConfig.Adversary, blserve's
//     -crash-round/-crash-id) crashes a healthy sender mid-broadcast and
//     relays its final payload to the adversary's chosen subset only —
//     partial delivery of a crashing sender's final round, the exact
//     schedule internal/sim replays for the equivalence tests.
//
// Malformed traffic (truncated frames, trailing bytes, oversized length
// prefixes, wrong rounds) is never trusted: the offending connection is
// closed and its process is treated as crashed, per-connection, without
// affecting the rest of the run.

// CoordinatorConfig parameterizes Serve.
type CoordinatorConfig struct {
	// Run is the configuration distributed to every client: the system
	// size n (also the number of connections admitted), the shared seed,
	// and the opaque algorithm variant.
	Run RunConfig
	// Net configures fault injection and the crash budget.
	Net NetConfig
	// MaxRounds aborts runs that exceed it. Zero means 10n + 64.
	MaxRounds int
	// IOTimeout bounds every single read or write on a connection; a peer
	// that stalls longer is treated as crashed. Zero means 30 seconds.
	IOTimeout time.Duration
	// Logf, when non-nil, receives operational log lines (admissions,
	// crashes, round progress).
	Logf func(format string, args ...any)
}

func (cfg *CoordinatorConfig) normalize() error {
	if cfg.Run.N < 1 {
		return fmt.Errorf("transport: coordinator needs n >= 1, got %d", cfg.Run.N)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10*cfg.Run.N + 64
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return nil
}

// conn wraps one admitted participant's connection.
type tcpMember struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte
	dead bool // connection unusable (dropped, malformed, or closed by us)
}

// Serve admits n participants on ln, distributes the run configuration,
// drives lock-step rounds until every participant has halted or crashed,
// and returns the system-wide Summary. The decisions reported by cleanly
// halting participants are validated for uniqueness before returning.
// Serve closes every accepted connection; it does not close ln.
func Serve(ln net.Listener, cfg CoordinatorConfig) (Summary, error) {
	if err := cfg.normalize(); err != nil {
		return Summary{}, err
	}

	members, err := admit(ln, cfg)
	if err != nil {
		for _, m := range members {
			m.conn.Close()
		}
		return Summary{}, err
	}
	defer func() {
		for _, m := range members {
			m.conn.Close()
		}
	}()

	ids := make([]proto.ID, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	nw, err := newNetwork(ids, cfg.Net)
	if err != nil {
		return Summary{}, err
	}
	ordered := make([]*tcpMember, len(ids))
	for i, id := range nw.Members() {
		ordered[i] = members[id]
	}

	// Distribute the run configuration; a client we cannot reach is dead
	// before round 1 and will be crashed for its missing payload below.
	var w wire.Writer
	for i, m := range ordered {
		w.Reset()
		appendConfig(&w, cfg.Run)
		if err := writeFrame(m, w.Bytes(), cfg.IOTimeout); err != nil {
			cfg.Logf("member %v unreachable at config: %v", nw.Members()[i], err)
			kill(m)
		}
	}

	payloads := make([][]byte, len(ordered))
	for round := 1; nw.Active(); round++ {
		if round > cfg.MaxRounds {
			return nw.summary(), fmt.Errorf("transport: exceeded %d rounds without quiescing", cfg.MaxRounds)
		}

		// Collect half: one data frame (or a halt) from every live member.
		for i, m := range ordered {
			payloads[i] = nil
			if nw.Status(i) != sim.Live || m.dead {
				continue
			}
			payload, halt, err := readRoundFrame(m, round, cfg.IOTimeout)
			switch {
			case err != nil:
				cfg.Logf("round %d: member %v: %v (treating as crash)", round, nw.Members()[i], err)
				kill(m)
			case halt != nil:
				cfg.Logf("round %d: member %v halted after round %d", round, nw.Members()[i], halt.Round)
				nw.halt(i, *halt)
				kill(m)
			default:
				payloads[i] = payload
			}
		}
		if !nw.Active() {
			break
		}

		// The network's own rule: a live member whose payload never
		// arrived is crashed before the adversary plans, with no final
		// message.
		mark := len(nw.Crashed())
		for i := range ordered {
			if nw.Status(i) == sim.Live && payloads[i] == nil {
				nw.Crash(i)
			}
		}

		// Deliver half: relay the round to every surviving member, then
		// cut the connections of this round's victims.
		crashedNow := nw.Step(round, payloads, func(i int, msgs []proto.Message) {
			m := ordered[i]
			w.Reset()
			appendRound(&w, round, Round{Msgs: msgs, Crashed: nw.Crashed()[mark:]})
			if err := writeFrame(m, w.Bytes(), cfg.IOTimeout); err != nil {
				cfg.Logf("round %d: member %v write failed: %v", round, nw.Members()[i], err)
				kill(m)
			}
		})
		for _, id := range crashedNow {
			cfg.Logf("round %d: member %v crashed", round, id)
		}
		for i, m := range ordered {
			if nw.Status(i) == sim.Crashed && !m.dead {
				kill(m)
			}
		}
	}

	sum := nw.summary()
	if err := proto.Validate(sum.Decisions, cfg.Run.N); err != nil {
		return sum, err
	}
	return sum, nil
}

// admit accepts connections until n distinct participants have completed
// the hello handshake. Connections with invalid hellos are rejected and
// do not count.
func admit(ln net.Listener, cfg CoordinatorConfig) (map[proto.ID]*tcpMember, error) {
	members := make(map[proto.ID]*tcpMember, cfg.Run.N)
	for len(members) < cfg.Run.N {
		conn, err := ln.Accept()
		if err != nil {
			return members, fmt.Errorf("transport: accept: %w", err)
		}
		m := &tcpMember{
			conn: conn,
			br:   bufio.NewReader(conn),
			bw:   bufio.NewWriter(conn),
		}
		conn.SetReadDeadline(time.Now().Add(cfg.IOTimeout))
		body, err := wire.ReadFrame(m.br, m.rbuf, maxFrame)
		if err != nil {
			cfg.Logf("admission: bad handshake from %v: %v", conn.RemoteAddr(), err)
			conn.Close()
			continue
		}
		id, err := decodeHello(body)
		if err != nil {
			cfg.Logf("admission: rejecting %v: %v", conn.RemoteAddr(), err)
			conn.Close()
			continue
		}
		if _, dup := members[id]; dup {
			cfg.Logf("admission: rejecting %v: duplicate ID %v", conn.RemoteAddr(), id)
			conn.Close()
			continue
		}
		members[id] = m
		cfg.Logf("admitted %v as %v (%d/%d)", conn.RemoteAddr(), id, len(members), cfg.Run.N)
	}
	return members, nil
}

// readRoundFrame reads the next frame from a member during the collect
// half of the given round: a data frame for this round, or the member's
// halt sign-off.
func readRoundFrame(m *tcpMember, round int, timeout time.Duration) (payload []byte, halt *Halt, err error) {
	m.conn.SetReadDeadline(time.Now().Add(timeout))
	body, err := wire.ReadFrame(m.br, m.rbuf, maxFrame)
	if err != nil {
		return nil, nil, err
	}
	m.rbuf = body
	kind := byte(0)
	if len(body) > 0 {
		kind = body[0]
	}
	switch kind {
	case frameData:
		got, payload, err := decodeData(body)
		if err != nil {
			return nil, nil, err
		}
		if got != round {
			return nil, nil, fmt.Errorf("transport: data for round %d during round %d", got, round)
		}
		if payload == nil {
			payload = []byte{}
		}
		return payload, nil, nil
	case frameHalt:
		h, err := decodeHalt(body)
		if err != nil {
			return nil, nil, err
		}
		return nil, &h, nil
	default:
		return nil, nil, fmt.Errorf("transport: unexpected frame kind %d during round %d", kind, round)
	}
}

// writeFrame frames and flushes one body on a member's connection.
func writeFrame(m *tcpMember, body []byte, timeout time.Duration) error {
	m.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := wire.WriteFrame(m.bw, body); err != nil {
		return err
	}
	return m.bw.Flush()
}

// kill closes a member's connection and marks it unusable.
func kill(m *tcpMember) {
	m.conn.Close()
	m.dead = true
}

// Client is the participant side of the TCP transport: it implements
// Transport over one connection to a coordinator.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	id      proto.ID
	cfg     RunConfig
	w       wire.Writer
	rbuf    []byte
	timeout time.Duration
}

// Dial connects to a coordinator, performs the hello handshake, and
// receives the run configuration. timeout bounds the dial and every
// subsequent read or write (0 means 30 seconds); because rounds are
// lock-step, a full round trip is bounded by the slowest participant, so
// the timeout should be generous.
func Dial(addr string, id proto.ID, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		id:      id,
		timeout: timeout,
	}
	c.w.Reset()
	appendHello(&c.w, id)
	if err := c.flushFrame(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	body, err := c.readFrame()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: awaiting config: %w", err)
	}
	cfg, err := decodeConfig(body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.cfg = cfg
	return c, nil
}

// ID returns the process identifier this client joined with.
func (c *Client) ID() proto.ID { return c.id }

// Config returns the run configuration the coordinator distributed.
func (c *Client) Config() RunConfig { return c.cfg }

// Broadcast implements Transport.
func (c *Client) Broadcast(round int, payload []byte) error {
	c.w.Reset()
	appendData(&c.w, round, payload)
	if err := c.flushFrame(); err != nil {
		return fmt.Errorf("broadcast round %d: %w: %v", round, ErrCrashed, err)
	}
	return nil
}

// Collect implements Transport. A connection severed by the coordinator —
// fault injection, a protocol violation, or a coordinator failure — means
// this process can no longer participate and surfaces as ErrCrashed.
func (c *Client) Collect(round int) (Round, error) {
	body, err := c.readFrame()
	if err != nil {
		return Round{}, fmt.Errorf("collect round %d: %w: %v", round, ErrCrashed, err)
	}
	got, rd, err := decodeRound(body)
	if err != nil {
		return Round{}, fmt.Errorf("collect round %d: %w", round, err)
	}
	if got != round {
		return Round{}, fmt.Errorf("transport: round frame for %d while collecting %d", got, round)
	}
	return rd, nil
}

// Halt implements Transport: it sends the sign-off frame and closes the
// connection.
func (c *Client) Halt(h Halt) error {
	c.w.Reset()
	appendHalt(&c.w, h)
	err := c.flushFrame()
	c.conn.Close()
	return err
}

// Close releases the connection without a sign-off (the coordinator will
// observe it as a crash). It is safe to call after Halt.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) flushFrame() error {
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	if err := wire.WriteFrame(c.bw, c.w.Bytes()); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *Client) readFrame() ([]byte, error) {
	c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	body, err := wire.ReadFrame(c.br, c.rbuf, maxFrame)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("connection closed by coordinator")
		}
		return nil, err
	}
	c.rbuf = body
	return body, nil
}
