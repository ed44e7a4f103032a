package ami

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/obs"
)

// shuttingDown reports whether Close has begun.
func (sh *ShardedHeadEnd) shuttingDown() bool {
	select {
	case <-sh.done:
		return true
	default:
		return false
	}
}

// session is one meter connection's protocol state.
type session struct {
	head    *ShardedHeadEnd
	codec   *Codec
	meterID string
}

// serve runs one meter connection until EOF, protocol error, idle timeout,
// or shutdown. It is the head-end's single protocol state machine:
//
//	hello, negotiated by version: v1 gets no reply and sends JSON readings,
//	each acked; v2 is refused; v3 gets a JSON hello reply and then sends
//	binary batch frames (each acked) and one-way rebind frames that switch
//	the session to another meter, so one connection can serve a whole fleet.
func (sh *ShardedHeadEnd) serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	codec := NewCodecLimit(conn, sh.cfg.MaxFrameSize)

	// First envelope must be a hello.
	_ = conn.SetReadDeadline(time.Now().Add(sh.cfg.IdleTimeout))
	first, err := codec.Recv()
	if err != nil {
		if errors.Is(err, io.EOF) || sh.shuttingDown() {
			return
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			sh.met.idleTimeouts.Inc()
			return
		}
		// A malformed, oversized, or truncated hello is a wire-level fault;
		// answer with the typed classification so the peer learns why.
		sh.met.codecErrors.Inc()
		_ = codec.sendError(errorCode(err), err.Error())
		return
	}
	if first.Type != TypeHello {
		_ = codec.sendError(CodeProtocol, "expected hello")
		return
	}
	s := &session{head: sh, codec: codec, meterID: first.Hello.MeterID}
	step := s.readingStep
	switch v := first.Hello.Version; {
	case v == WireV2:
		sh.met.rejected.Inc()
		_ = codec.sendError(CodeProtocol, "wire v2 is retired; dial with wire v3")
		return
	case v >= WireV3:
		if len(s.meterID) > maxMeterIDLen {
			sh.met.rejected.Inc()
			_ = codec.sendError(CodeProtocol, "meter ID too long for wire v3")
			return
		}
		// Negotiate down to the highest version both ends speak. The reply
		// advertises the head-end's batch cap, and from here on both
		// directions are binary frames.
		err := codec.Send(&Envelope{Type: TypeHello, Hello: &HelloMsg{
			MeterID: s.meterID, Version: WireV3, MaxBatch: sh.cfg.MaxBatch,
		}})
		if err != nil {
			return
		}
		codec.binary = true
		step = s.frameStep
	}
	// v1 meters sent no version and get no reply, byte-identical to the
	// pre-versioning protocol.

	for {
		// Drain semantics: finish the in-flight request/ack cycle, then
		// bow out between frames once shutdown has begun.
		if sh.shuttingDown() {
			sh.met.connsDrained.Inc()
			_ = codec.sendError(CodeShuttingDown, "head-end shutting down")
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(sh.cfg.IdleTimeout))
		if !step() {
			return
		}
	}
}

// readFailed ends the session after a failed read, answering with the
// typed reason when the peer is still there to hear it.
func (s *session) readFailed(err error) bool {
	sh := s.head
	if errors.Is(err, io.EOF) || sh.shuttingDown() {
		// Clean hangup, or force-closed (or cut mid-read) during drain;
		// nothing to say.
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		sh.met.idleTimeouts.Inc()
		sh.log.Debug("session idle timeout", "meter", s.meterID)
		_ = s.codec.sendError(CodeIdleTimeout, "idle timeout")
		return false
	}
	// Anything else out of the codec is a wire-level fault: a malformed,
	// oversized, or truncated frame (oversized frames carry CodeOversized
	// on the way back).
	sh.met.codecErrors.Inc()
	return s.reject(sh.met.rejected, errorCode(err), err.Error())
}

// reject counts a refusal, answers with it, and ends the session.
func (s *session) reject(counter *obs.Counter, code, msg string) bool {
	counter.Inc()
	_ = s.codec.sendError(code, msg)
	return false
}

// accept stores one frame's readings and records the accepted-path
// instruments. Ingest latency covers receipt through storage, observed on
// exactly the accepted path: rejected frames never reach it, and a failed
// or stalled ack write cannot pollute the distribution with transport
// noise.
func (s *session) accept(start time.Time, rs []BatchReading, payload []byte) bool {
	sh := s.head
	if err := sh.store(s.meterID, rs, payload); err != nil {
		sh.log.Error("readings could not be made durable", "meter", s.meterID, "err", err)
		return s.reject(sh.met.rejected, CodeStorage, err.Error())
	}
	sh.met.ingestLatency.Observe(time.Since(start).Seconds())
	return true
}

// readingStep serves one v1 frame: a JSON reading, answered by a JSON ack.
func (s *session) readingStep() bool {
	sh := s.head
	sh.parked.Add(1)
	env, err := s.codec.Recv()
	sh.parked.Add(-1)
	if err != nil {
		return s.readFailed(err)
	}
	if env.Type != TypeReading {
		return s.reject(sh.met.rejected, CodeProtocol, "expected reading")
	}
	start := time.Now()
	r := env.Reading
	if r.MeterID != s.meterID {
		return s.reject(sh.met.rejected, CodeSessionMismatch,
			fmt.Sprintf("%v: reading claims %q, session is %q", ErrSessionMismatch, r.MeterID, s.meterID))
	}
	if sh.keyring != nil {
		if err := sh.keyring.VerifyEnvelope(env); err != nil {
			sh.log.Warn("reading failed MAC verification", "meter", s.meterID)
			return s.reject(sh.met.authFailed, CodeAuth, err.Error())
		}
	}
	if !s.accept(start, []BatchReading{{Slot: r.Slot, KW: r.KW}}, nil) {
		return false
	}
	return s.codec.Send(&Envelope{Type: TypeAck, Ack: &AckMsg{Slot: r.Slot}}) == nil
}

// frameStep serves one v3 frame: a rebind (one-way: it switches the
// session's meter and is not answered) or a batch (decoded, checked
// against the session's meter, verified over its raw payload bytes,
// stored, and acked). A drain that begins between a rebind and its batch
// refuses the batch at the loop-top check.
func (s *session) frameStep() bool {
	sh := s.head
	sh.parked.Add(1)
	kind, body, err := s.codec.recvFrame()
	sh.parked.Add(-1)
	if err != nil {
		return s.readFailed(err)
	}
	switch kind {
	case frameRebind:
		if len(body) == 0 || len(body) > maxMeterIDLen {
			return s.reject(sh.met.rejected, CodeProtocol, fmt.Sprintf("rebind meter ID of %d bytes", len(body)))
		}
		s.meterID = string(body)
		return true

	case frameBatch:
		start := time.Now()
		id, rs, n, err := decodePayload(body, sh.cfg.MaxBatch)
		if err != nil {
			sh.met.codecErrors.Inc()
			return s.reject(sh.met.rejected, CodeProtocol, err.Error())
		}
		payload, tag := body[:n], body[n:]
		if len(tag) != 0 && len(tag) != macSize {
			sh.met.codecErrors.Inc()
			return s.reject(sh.met.rejected, CodeProtocol,
				fmt.Sprintf("batch frame carries %d bytes after its payload, want 0 or %d", len(tag), macSize))
		}
		if string(id) != s.meterID {
			return s.reject(sh.met.rejected, CodeSessionMismatch,
				fmt.Sprintf("%v: batch claims %q, session is %q", ErrSessionMismatch, id, s.meterID))
		}
		if sh.keyring != nil {
			if err := sh.keyring.verifyPayload(s.meterID, rs[0].Slot, payload, tag); err != nil {
				sh.log.Warn("batch failed MAC verification", "meter", s.meterID)
				return s.reject(sh.met.authFailed, CodeAuth, err.Error())
			}
		}
		if !s.accept(start, rs, payload) {
			return false
		}
		sh.met.batchFrames.Inc()
		sh.met.batchSize.Observe(float64(len(rs)))
		return s.codec.writeFrames(appendAckFrame(s.codec.out[:0], len(rs), rs[len(rs)-1].Slot)) == nil

	default:
		return s.reject(sh.met.rejected, CodeProtocol, fmt.Sprintf("unexpected frame kind %d", kind))
	}
}

// rejectBusyConn turns away a connection accepted past the limit: it
// consumes the hello, answers with a CodeBusy error, then drains until the
// meter hangs up or the grace period ends. The drain matters — closing
// with the meter's next frame unread would trigger a TCP reset that can
// destroy the error envelope before the meter reads it.
func rejectBusyConn(conn net.Conn, idleTimeout time.Duration, maxFrame int) {
	defer func() { _ = conn.Close() }()
	grace := idleTimeout
	if grace > 5*time.Second {
		grace = 5 * time.Second
	}
	_ = conn.SetDeadline(time.Now().Add(grace))
	codec := NewCodecLimit(conn, maxFrame)
	_, _ = codec.Recv()
	if err := codec.sendError(CodeBusy, "head-end at connection limit"); err != nil {
		return
	}
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}
