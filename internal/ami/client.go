package ami

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/meter"
)

// Client is a meter-side wire-v3 connection to the head-end.
type Client struct {
	conn     net.Conn
	codec    *Codec
	meterID  string
	timeout  time.Duration
	key      []byte // optional HMAC signing key
	maxBatch int    // head-end's advertised per-frame cap
	rebind   bool   // meterID was bound but not yet sent in a rebind frame

	rs  []BatchReading // batch frame assembly scratch
	mac macState       // signing state, reused across frames
}

// DialBatch connects to the head-end and performs the wire-v3 handshake:
// the hello advertises version 3 and the head-end answers with its
// negotiated version and per-frame batch cap; from then on the session is
// binary. With a per-meter HMAC key every frame sent is signed, so a
// man-in-the-middle cannot rewrite it undetected. An attacker who
// compromises the meter itself obtains the key, which is exactly why the
// paper insists crypto alone cannot stop theft (Section I).
func DialBatch(addr, meterID string, key []byte, timeout time.Duration) (*Client, error) {
	if err := checkMeterID(meterID); err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ami: dialing head-end: %w", err)
	}
	c := &Client{
		conn:    conn,
		codec:   NewCodec(conn),
		meterID: meterID,
		timeout: timeout,
		key:     append([]byte(nil), key...),
	}
	// The handshake runs under the same deadline as the dial: a stalled
	// head-end (full TCP buffers, frozen process) must not block the caller
	// forever on the hello write.
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ami: setting handshake deadline: %w", err)
	}
	hello := &HelloMsg{MeterID: meterID, Version: WireV3, MaxBatch: DefaultMaxBatch}
	if err := c.codec.Send(&Envelope{Type: TypeHello, Hello: hello}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ami: sending hello: %w", err)
	}
	if err := c.awaitHello(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	// Disarm until the next send re-arms per operation, so a deliberately
	// idle client connection does not expire on its own clock.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ami: clearing handshake deadline: %w", err)
	}
	return c, nil
}

// checkMeterID rejects meter IDs the wire cannot carry.
func checkMeterID(meterID string) error {
	if meterID == "" {
		return fmt.Errorf("ami: meter ID is required")
	}
	if len(meterID) > maxMeterIDLen {
		return fmt.Errorf("ami: meter ID of %d bytes exceeds wire v3's %d", len(meterID), maxMeterIDLen)
	}
	return nil
}

// awaitHello reads the head-end's JSON hello response to a v3 hello,
// records the batch cap, and switches the codec to binary frames.
func (c *Client) awaitHello() error {
	resp, err := c.codec.Recv()
	if err != nil {
		return fmt.Errorf("ami: waiting for hello response: %w", err)
	}
	switch resp.Type {
	case TypeHello:
		if resp.Hello.Version != WireV3 {
			return fmt.Errorf("ami: head-end negotiated wire v%d, this client speaks v3", resp.Hello.Version)
		}
		c.maxBatch = max(resp.Hello.MaxBatch, 1)
		c.codec.binary = true
		return nil
	case TypeError:
		return &ProtocolError{Code: resp.Code, Message: resp.Error}
	default:
		return fmt.Errorf("ami: unexpected hello response type %q", resp.Type)
	}
}

// recvReply reads the head-end's answer to a frame, which must be of
// kind want; an error frame comes back as a *ProtocolError.
func (c *Client) recvReply(want byte) ([]byte, error) {
	kind, body, err := c.codec.recvFrame()
	if err != nil {
		return nil, fmt.Errorf("ami: waiting for reply: %w", err)
	}
	switch kind {
	case want:
		return body, nil
	case frameError:
		perr, err := parseErrorFrame(body)
		if err != nil {
			return nil, err
		}
		return nil, perr
	default:
		return nil, fmt.Errorf("ami: unexpected reply frame kind %d", kind)
	}
}

// Bind switches the connection to a different meter ID. This is what lets
// one TCP connection multiplex a fleet of simulated meters: a load harness
// worker binds, sends a batch, and rebinds without paying a dial per
// meter. Bind does no I/O: the one-way rebind frame goes out in the same
// write as the next SendBatch, so a head-end's refusal of the rebind
// surfaces from that send.
func (c *Client) Bind(meterID string) error {
	if err := checkMeterID(meterID); err != nil {
		return err
	}
	c.meterID = meterID
	c.rebind = true
	return nil
}

// SendBatch reports readings in batch frames, chunked to the head-end's
// negotiated per-frame cap, waiting for the batch acknowledgement after
// each frame. One frame carries up to MaxBatch readings for one syscall
// and one ack round-trip; a one-reading slice is one frame.
func (c *Client) SendBatch(rs []meter.Reading) error {
	for len(rs) > 0 {
		n := min(len(rs), c.maxBatch)
		if err := c.sendBatchFrame(rs[:n]); err != nil {
			return err
		}
		rs = rs[n:]
	}
	return nil
}

// sendBatchFrame sends one batch frame (len(rs) <= maxBatch), signed when
// the client holds a key and preceded in the same write by the rebind a
// Bind left pending, and waits for its acknowledgement. Readings the
// head-end would refuse are refused here first, before anything is sent.
func (c *Client) sendBatchFrame(rs []meter.Reading) error {
	c.rs = c.rs[:0]
	for _, r := range rs {
		if r.MeterID != c.meterID {
			return fmt.Errorf("ami: reading meter ID %q does not match client %q", r.MeterID, c.meterID)
		}
		if r.Slot < 0 {
			return fmt.Errorf("ami: reading slot %d negative", r.Slot)
		}
		if err := validKW(r.KW); err != nil {
			return err
		}
		c.rs = append(c.rs, BatchReading{Slot: int64(r.Slot), KW: r.KW})
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return fmt.Errorf("ami: setting deadline: %w", err)
	}
	out := c.codec.out[:0]
	if c.rebind {
		out = AppendRebindFrame(out, c.meterID)
	}
	if err := c.codec.writeFrames(appendBatchFrame(out, c.meterID, c.rs, c.key, &c.mac)); err != nil {
		return err
	}
	c.rebind = false
	first, last := c.rs[0].Slot, c.rs[len(c.rs)-1].Slot
	body, err := c.recvReply(frameBatchAck)
	if err != nil {
		var perr *ProtocolError
		if errors.As(err, &perr) && perr.Code == CodeAuth {
			perr.cause = &AuthError{MeterID: c.meterID, Slot: first}
		}
		return err
	}
	count, ackLast, err := parseAckFrame(body)
	if err != nil {
		return err
	}
	if count != len(c.rs) {
		return fmt.Errorf("ami: batch ack covers %d readings, expected %d", count, len(c.rs))
	}
	if ackLast != last {
		return fmt.Errorf("ami: batch ack for slot %d, expected %d", ackLast, last)
	}
	return nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }
