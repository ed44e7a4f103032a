// Package ami implements a miniature Advanced Metering Infrastructure: a
// TCP head-end collection server at the utility, meter clients that stream
// readings to it, and a man-in-the-middle proxy that rewrites readings in
// flight. The proxy is the concrete realization of the paper's attack
// premise that "either the smart meter or the communication link has been
// compromised, and the attacker is now an insider" (Section IV).
//
// Every session opens with a newline-delimited JSON hello. What follows
// depends on the version the hello advertises:
//
//	v1  no version field. One JSON reading envelope per line, each
//	    answered by a JSON ack; the hello gets no reply. v1 peers are
//	    byte-identical to the pre-versioning protocol and serve legacy
//	    meters.
//	v2  retired. A hello advertising exactly "ver":2 is refused with a
//	    CodeProtocol error envelope.
//	v3  "ver":3 (or higher, negotiated down). The head-end answers with a
//	    JSON hello carrying the agreed version and its batch cap; from then
//	    on the session is binary in both directions (see frame.go). A batch
//	    frame's body is the WAL record payload byte for byte, optionally
//	    followed by a raw HMAC-SHA256 tag over exactly those bytes, so an
//	    accepted frame is verified, logged and stored without re-encoding.
//	    One-way rebind frames switch the session to another meter, so one
//	    connection can carry a whole fleet's traffic.
//
// Because the threat model assumes the peer may be hostile, the codec
// trusts nothing: frames are bounded by MaxFrameSize (a meter streaming
// one multi-gigabyte frame gets a typed CodeOversized rejection, not the
// head-end's address space; a v3 length prefix is checked before any
// allocation), and both the JSON validator and the payload decoder reject
// negative slots and non-finite or negative kW, so NaN/±Inf poison can
// never reach the readings store.
package ami

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Message types carried in a JSON Envelope.
const (
	TypeHello   = "hello"
	TypeReading = "reading"
	TypeAck     = "ack"
	TypeError   = "error"
)

// Wire protocol versions. A hello with no version field is a v1 peer.
const (
	// WireV1 is the original one-reading-per-frame JSON dialect.
	WireV1 = 1
	// WireV2 is the retired JSON batch dialect; head-ends refuse it.
	WireV2 = 2
	// WireV3 is the binary batch dialect: batch and rebind frames whose
	// bodies are WAL record payloads.
	WireV3 = 3
)

// Frame and batch bounds.
const (
	// DefaultMaxFrameSize bounds one wire frame: a JSON envelope plus its
	// newline, or a v3 frame header plus its body. The largest legitimate
	// frame is a full signed batch, which fits comfortably in 1 MiB.
	DefaultMaxFrameSize = 1 << 20
	// DefaultMaxBatch is the head-end's default cap on readings per batch
	// frame, advertised to v3 clients in the hello response.
	DefaultMaxBatch = 1024
)

// Envelope is the JSON wire frame: every hello, and every v1 reading, ack
// and error. Type selects which payload field is populated.
type Envelope struct {
	Type    string      `json:"type"`
	Hello   *HelloMsg   `json:"hello,omitempty"`
	Reading *ReadingMsg `json:"reading,omitempty"`
	Ack     *AckMsg     `json:"ack,omitempty"`
	Error   string      `json:"error,omitempty"`
	// Code is the machine-readable classification of a TypeError envelope
	// (see the Code* constants). Optional: peers predating the taxonomy
	// send errors with no code, which readers treat as permanent.
	Code string `json:"code,omitempty"`
	// Auth is the optional hex HMAC-SHA256 tag over a v1 reading (see
	// SignReading). Verified only when the head-end runs with a keyring.
	Auth string `json:"auth,omitempty"`
}

// HelloMsg introduces a meter at connection start. The version and batch
// fields are omitted when zero, so a v1 hello is byte-identical to the
// pre-versioning wire format.
type HelloMsg struct {
	MeterID string `json:"meter_id"`
	// Version is the highest protocol version the sender speaks (0 means
	// v1: the field predates versioning). In the head-end's hello response
	// it is the negotiated version for the session.
	Version int `json:"ver,omitempty"`
	// MaxBatch is only meaningful in the head-end's hello response: the
	// largest batch frame it will accept. Clients must chunk accordingly.
	MaxBatch int `json:"max_batch,omitempty"`
}

// ReadingMsg reports one average-demand measurement (v1).
type ReadingMsg struct {
	MeterID string  `json:"meter_id"`
	Slot    int64   `json:"slot"`
	KW      float64 `json:"kw"`
}

// BatchReading is one (slot, kW) pair inside a batch frame or WAL record.
// The meter ID is carried once per frame.
type BatchReading struct {
	Slot int64
	KW   float64
}

// AckMsg acknowledges a v1 reading by slot.
type AckMsg struct {
	Slot int64 `json:"slot"`
}

// validKW rejects the values the readings store must never hold: negative
// demand and the non-finite floats (NaN compares false against every
// bound, so a plain `< 0` check waves it straight through — the hole this
// guard closes).
func validKW(kw float64) error {
	if math.IsNaN(kw) || math.IsInf(kw, 0) {
		return fmt.Errorf("ami: reading %g kW is not finite", kw)
	}
	if kw < 0 {
		return fmt.Errorf("ami: reading %g kW negative", kw)
	}
	return nil
}

// Validate checks envelope well-formedness.
func (e *Envelope) Validate() error {
	switch e.Type {
	case TypeHello:
		if e.Hello == nil || e.Hello.MeterID == "" {
			return fmt.Errorf("ami: hello envelope missing meter ID")
		}
		if e.Hello.Version < 0 || e.Hello.MaxBatch < 0 {
			return fmt.Errorf("ami: hello version %d / max batch %d negative",
				e.Hello.Version, e.Hello.MaxBatch)
		}
	case TypeReading:
		if e.Reading == nil {
			return fmt.Errorf("ami: reading envelope missing payload")
		}
		if e.Reading.MeterID == "" {
			return fmt.Errorf("ami: reading missing meter ID")
		}
		if e.Reading.Slot < 0 {
			return fmt.Errorf("ami: reading slot %d negative", e.Reading.Slot)
		}
		if err := validKW(e.Reading.KW); err != nil {
			return err
		}
	case TypeAck:
		if e.Ack == nil {
			return fmt.Errorf("ami: ack envelope missing payload")
		}
	case TypeError:
		if e.Error == "" {
			return fmt.Errorf("ami: error envelope missing message")
		}
	default:
		return fmt.Errorf("ami: unknown envelope type %q", e.Type)
	}
	return nil
}

// Codec reads and writes one session's frames over a stream: JSON
// envelopes until a v3 hello exchange switches it to binary frames.
// Inbound frames are bounded: a frame that exceeds the codec's limit
// yields a typed *ProtocolError with CodeOversized instead of buffering
// without bound.
type Codec struct {
	w   io.Writer
	r   *bufio.Reader
	max int
	buf []byte // inbound frame scratch, reused across reads

	// binary is set once a v3 hello exchange completes; from then on the
	// session's errors go out as binary error frames.
	binary bool
	hdr    [frameHeader]byte // inbound frame header scratch
	out    []byte            // outbound frame scratch
}

// NewCodec wraps a duplex stream with the default frame bound.
func NewCodec(rw io.ReadWriter) *Codec {
	return NewCodecLimit(rw, DefaultMaxFrameSize)
}

// NewCodecLimit wraps a duplex stream with an explicit frame bound
// (maxFrame <= 0 selects DefaultMaxFrameSize). The bound applies to both
// directions: oversized outbound frames are refused locally rather than
// shipped to a peer that would reject them anyway.
func NewCodecLimit(rw io.ReadWriter, maxFrame int) *Codec {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameSize
	}
	return &Codec{
		w:   rw,
		r:   bufio.NewReader(rw),
		max: maxFrame,
	}
}

// oversized is the typed rejection for a frame past the codec's bound.
func (c *Codec) oversized(n int) error {
	return &ProtocolError{Code: CodeOversized,
		Message: fmt.Sprintf("frame is %d bytes, limit %d", n, c.max)}
}

// Send validates and writes one JSON envelope.
func (c *Codec) Send(e *Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("ami: encoding %s envelope: %w", e.Type, err)
	}
	if len(buf)+1 > c.max {
		return fmt.Errorf("ami: encoding %s envelope: %w", e.Type, c.oversized(len(buf)+1))
	}
	buf = append(buf, '\n')
	if _, err := c.w.Write(buf); err != nil {
		return fmt.Errorf("ami: encoding %s envelope: %w", e.Type, err)
	}
	return nil
}

// readLine assembles one newline-terminated JSON frame, refusing to buffer
// past the codec's limit. A final frame cut off by EOF is returned as-is
// for the JSON layer to reject; a clean EOF at a frame boundary surfaces
// as io.EOF unwrapped.
func (c *Codec) readLine() ([]byte, error) {
	c.buf = c.buf[:0]
	for {
		chunk, err := c.r.ReadSlice('\n')
		c.buf = append(c.buf, chunk...)
		if len(c.buf) > c.max {
			return nil, &ProtocolError{Code: CodeOversized,
				Message: fmt.Sprintf("frame exceeds %d-byte limit", c.max)}
		}
		switch err {
		case nil:
			return c.buf, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(c.buf) == 0 {
				return nil, io.EOF
			}
			return c.buf, nil
		default:
			return nil, err
		}
	}
}

// Recv reads and validates one JSON envelope. It returns io.EOF unwrapped
// when the peer closed cleanly; an oversized frame returns a wrapped
// *ProtocolError carrying CodeOversized (match with errors.Is(err,
// ErrOversized)).
func (c *Codec) Recv() (*Envelope, error) {
	frame, err := c.readLine()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("ami: decoding envelope: %w", err)
	}
	var e Envelope
	if err := json.Unmarshal(frame, &e); err != nil {
		return nil, fmt.Errorf("ami: decoding envelope: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// sendError reports a rejection to the peer in the session's current
// dialect: a binary error frame once v3 is negotiated, a JSON error
// envelope before that.
func (c *Codec) sendError(code, msg string) error {
	if c.binary {
		return c.writeFrames(appendErrorFrame(c.out[:0], code, msg))
	}
	return c.Send(&Envelope{Type: TypeError, Code: code, Error: msg})
}
