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

// session is one meter connection's protocol state, with the scratch its
// accepted-frame path reuses: decoded readings (borrowed by the store and
// the sink for the call only) and the MAC state.
type session struct {
	head    *ShardedHeadEnd
	codec   *Codec
	meterID string
	rs      []BatchReading
	mac     macState
}

// serve runs one meter connection until EOF, protocol error, idle timeout,
// or shutdown. It is the head-end's single protocol state machine: a hello
// below v3 is refused; a v3 hello gets a JSON hello reply, and the meter
// then sends binary batch frames (each acked) and one-way rebind frames
// that switch the session to another meter, so one connection can serve a
// whole fleet.
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
	if v := first.Hello.Version; v < WireV3 {
		sh.met.rejected.Inc()
		_ = codec.sendError(CodeProtocol, fmt.Sprintf("wire v%d is retired; dial with wire v3", max(v, 1)))
		return
	}
	if len(s.meterID) > maxMeterIDLen {
		sh.met.rejected.Inc()
		_ = codec.sendError(CodeProtocol, "meter ID too long for wire v3")
		return
	}
	// Negotiate down to the highest version both ends speak. The reply
	// advertises the head-end's batch cap, and from here on both directions
	// are binary frames.
	reply := &HelloMsg{MeterID: s.meterID, Version: WireV3, MaxBatch: sh.cfg.MaxBatch}
	if codec.Send(&Envelope{Type: TypeHello, Hello: reply}) != nil {
		return
	}
	codec.binary = true

	for {
		// Drain semantics: finish the in-flight request/ack cycle, then
		// bow out between frames once shutdown has begun.
		if sh.shuttingDown() {
			sh.met.connsDrained.Inc()
			_ = codec.sendError(CodeShuttingDown, "head-end shutting down")
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(sh.cfg.IdleTimeout))
		if !s.frameStep() {
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

// accept stores one frame's readings, hands them to the sink, and records
// the accepted-path instruments; the caller acks after it returns. Ingest
// latency covers receipt through storage, observed on exactly the accepted
// path: rejected frames never reach it, and neither the sink nor a failed
// or stalled ack write can pollute the distribution.
func (s *session) accept(start time.Time, rs []BatchReading, payload []byte) bool {
	sh := s.head
	calls := sh.calls.enter()
	defer calls.Done()
	if err := sh.store(s.meterID, rs, payload); err != nil {
		sh.log.Error("readings could not be made durable", "meter", s.meterID, "err", err)
		return s.reject(sh.met.rejected, CodeStorage, err.Error())
	}
	sh.met.ingestLatency.Observe(time.Since(start).Seconds())
	if sh.sink != nil {
		sh.sink(s.meterID, rs)
	}
	sh.met.accepted.Add(int64(len(rs)))
	return true
}

// frameStep serves one frame: a rebind (one-way: it switches the
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
		s.meterID = sh.internID(body)
		return true

	case frameBatch:
		start := time.Now()
		id, rs, n, err := decodePayload(body, sh.cfg.MaxBatch, s.rs)
		if err != nil {
			sh.met.codecErrors.Inc()
			return s.reject(sh.met.rejected, CodeProtocol, err.Error())
		}
		s.rs = rs
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
			if err := sh.keyring.verifyPayload(&s.mac, s.meterID, rs[0].Slot, payload, tag); err != nil {
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
