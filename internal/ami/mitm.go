package ami

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

// RewriteFunc intercepts a reading in flight and returns the (possibly
// falsified) reading to forward. Returning the input unchanged passes the
// reading through; the meter ID of the result is ignored, since a batch
// frame carries one meter's readings.
type RewriteFunc func(meter.Reading) meter.Reading

// MITMConfig bounds the proxy's connection lifecycle. The zero value
// selects the same defaults as the head-end.
type MITMConfig struct {
	// IdleTimeout is the per-read deadline on both legs (0 = DefaultIdleTimeout).
	IdleTimeout time.Duration
	// DrainTimeout is the Close grace period (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
}

func (c *MITMConfig) applyDefaults() {
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
}

// MITM is a man-in-the-middle proxy between meters and the head-end. It
// relays the hello exchange, decodes the batch frames that follow, applies
// a rewrite function to their readings, and forwards everything else
// untouched — the concrete mechanism behind every "compromised
// communication link" attack in the paper. Acks flow back to the meter for the *original*
// slot, so the victim meter observes a perfectly healthy session. Like the
// head-end it registers every live connection so Close force-closes
// stragglers after the drain timeout.
type MITM struct {
	upstream string
	rewrite  RewriteFunc
	cfg      MITMConfig

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	nSeen  int
	nRewr  int
	conns  map[net.Conn]struct{}

	done chan struct{}
	wg   sync.WaitGroup
}

// NewMITM creates a proxy that forwards to the given upstream head-end
// address, rewriting readings with rw (nil passes everything through).
func NewMITM(upstream string, rw RewriteFunc) *MITM {
	return NewMITMWith(upstream, rw, MITMConfig{})
}

// NewMITMWith is NewMITM with explicit lifecycle limits.
func NewMITMWith(upstream string, rw RewriteFunc, cfg MITMConfig) *MITM {
	cfg.applyDefaults()
	return &MITM{
		upstream: upstream,
		rewrite:  rw,
		cfg:      cfg,
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
}

// Listen starts the proxy and returns its bound address. A proxy listens
// at most once: a second Listen returns ErrListening.
func (m *MITM) Listen(addr string) (string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", fmt.Errorf("ami: mitm: %w", ErrClosed)
	}
	if m.ln != nil {
		m.mu.Unlock()
		return "", fmt.Errorf("ami: mitm: %w", ErrListening)
	}
	m.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ami: mitm listen: %w", err)
	}
	m.mu.Lock()
	if m.closed || m.ln != nil {
		reason := ErrClosed
		if m.ln != nil {
			reason = ErrListening
		}
		m.mu.Unlock()
		_ = ln.Close()
		return "", fmt.Errorf("ami: mitm: %w", reason)
	}
	m.ln = ln
	m.mu.Unlock()

	m.wg.Add(1)
	go m.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (m *MITM) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			_ = conn.Close()
			return
		}
		m.conns[conn] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer m.untrack(conn)
			m.handle(conn)
		}()
	}
}

func (m *MITM) track(conn net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.conns[conn] = struct{}{}
	return true
}

func (m *MITM) untrack(conn net.Conn) {
	m.mu.Lock()
	delete(m.conns, conn)
	m.mu.Unlock()
}

func (m *MITM) shuttingDown() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// recv arms the idle read deadline on one leg and reads an envelope.
func (m *MITM) recv(conn net.Conn, codec *Codec) (*Envelope, error) {
	_ = conn.SetReadDeadline(time.Now().Add(m.cfg.IdleTimeout))
	return codec.Recv()
}

func (m *MITM) handle(down net.Conn) {
	defer func() { _ = down.Close() }()
	up, err := net.DialTimeout("tcp", m.upstream, m.cfg.IdleTimeout)
	if err != nil {
		return
	}
	defer func() { _ = up.Close() }()
	if !m.track(up) {
		return
	}
	defer m.untrack(up)

	downCodec := NewCodec(down)
	upCodec := NewCodec(up)
	// The JSON leg is one hello exchange. The head-end's answer is relayed
	// whatever it is; only a negotiated v3 hello carries the session on,
	// after which both legs are binary and every frame but a rebind gets
	// exactly one response, relayed inline.
	if m.shuttingDown() {
		_ = downCodec.sendError(CodeShuttingDown, "proxy shutting down")
		return
	}
	hello, err := m.recv(down, downCodec)
	if err != nil {
		return
	}
	if err := upCodec.Send(hello); err != nil {
		return
	}
	resp, err := m.recv(up, upCodec)
	if err != nil {
		return
	}
	if err := downCodec.Send(resp); err != nil {
		return
	}
	if resp.Type != TypeHello || resp.Hello.Version != WireV3 {
		return
	}
	maxBatch := max(resp.Hello.MaxBatch, 1)
	downCodec.binary, upCodec.binary = true, true

	for {
		if m.shuttingDown() {
			_ = downCodec.sendError(CodeShuttingDown, "proxy shutting down")
			return
		}
		_ = down.SetReadDeadline(time.Now().Add(m.cfg.IdleTimeout))
		kind, body, err := downCodec.recvFrame()
		if err != nil {
			return
		}
		if kind == frameBatch {
			body = m.rewriteBatch(body, maxBatch)
		}
		if err := upCodec.relayFrame(kind, body); err != nil {
			return
		}
		if kind == frameRebind {
			continue // one-way: its batch follows, and only the batch is answered
		}
		_ = up.SetReadDeadline(time.Now().Add(m.cfg.IdleTimeout))
		kind, body, err = upCodec.recvFrame()
		if err != nil {
			return
		}
		if err := downCodec.relayFrame(kind, body); err != nil {
			return
		}
	}
}

// rewriteBatch applies the attack to every reading of a batch body and
// returns the body to forward: the re-encoded payload followed by the
// frame's original tag, which no longer matches — so when the meter signs
// its frames, the head-end's MAC check catches the tampering. The meter ID
// stays the frame's own. A body the decoder refuses is forwarded untouched
// for the head-end to reject.
func (m *MITM) rewriteBatch(body []byte, maxBatch int) []byte {
	id, rs, n, err := decodePayload(body, maxBatch, nil)
	if err != nil {
		return body
	}
	m.mu.Lock()
	m.nSeen += len(rs)
	m.mu.Unlock()
	if m.rewrite == nil {
		return body
	}
	meterID := string(id)
	rewrites := 0
	for i, br := range rs {
		orig := meter.Reading{MeterID: meterID, Slot: timeseries.Slot(br.Slot), KW: br.KW}
		rewritten := m.rewrite(orig)
		if rewritten != orig {
			rewrites++
		}
		rs[i] = BatchReading{Slot: int64(rewritten.Slot), KW: rewritten.KW}
	}
	m.mu.Lock()
	m.nRewr += rewrites
	m.mu.Unlock()
	return append(appendPayload(nil, meterID, rs), body[n:]...)
}

// Stats returns how many readings passed through and how many were
// rewritten.
func (m *MITM) Stats() (seen, rewritten int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nSeen, m.nRewr
}

// Close stops the proxy, gives active sessions the drain timeout to finish
// their in-flight exchange, then force-closes whatever remains. Bounded
// even when a meter holds an idle connection.
func (m *MITM) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	ln := m.ln
	close(m.done)
	m.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	timer := time.NewTimer(m.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-drained:
	case <-timer.C:
		m.mu.Lock()
		for conn := range m.conns {
			_ = conn.Close()
		}
		m.mu.Unlock()
		<-drained
	}
	return err
}
