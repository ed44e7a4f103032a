package ami

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ingestStore is the storage behind a meter session. HeadEnd implements it
// with a synchronous mutex-guarded map write; ShardedHeadEnd routes each
// store to the owning shard's async ingest queue so the session goroutine
// never blocks on the readings map.
//
// store receives one accepted frame: the meter, its readings (owned by the
// store from here on), and — for a v3 batch — the verified payload bytes,
// which a WAL appends as they are (payload is borrowed for the call; nil
// for a v1 reading). A store error means the readings could NOT be made
// durable: the session answers with a transient CodeStorage rejection
// (never an ack) so the meter retries.
type ingestStore interface {
	store(meterID string, rs []BatchReading, payload []byte) error
}

// sessionEnv bundles everything a per-connection session handler needs.
// One env is shared by all sessions of a head-end; apart from the parked
// gauge it is read-only after construction.
type sessionEnv struct {
	cfg   *HeadEndConfig
	met   *headEndMetrics
	kr    *Keyring
	store ingestStore
	log   *slog.Logger
	done  <-chan struct{} // closed when the head-end starts shutting down

	// parked counts sessions blocked reading their next frame after the
	// hello. A session is counted only once it has passed the loop-top
	// drain check, so a parked session leaves only through new data, its
	// idle deadline, or a force-close — never through a graceful drain.
	parked atomic.Int64
}

// shuttingDown reports whether Close has begun.
func (e *sessionEnv) shuttingDown() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// session is one meter connection's protocol state.
type session struct {
	env     *sessionEnv
	codec   *Codec
	meterID string
}

// serve runs one meter connection until EOF, protocol error, idle timeout,
// or shutdown. It is the single protocol state machine behind both the
// plain and the sharded head-end:
//
//	hello, negotiated by version: v1 gets no reply and sends JSON readings,
//	each acked; v2 is refused; v3 gets a JSON hello reply and then sends
//	binary batch frames (each acked) and rebind frames that switch the
//	session to another meter, so one connection can serve a whole fleet.
func (e *sessionEnv) serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	codec := NewCodecLimit(conn, e.cfg.MaxFrameSize)

	// First envelope must be a hello.
	_ = conn.SetReadDeadline(time.Now().Add(e.cfg.IdleTimeout))
	first, err := codec.Recv()
	if err != nil {
		if errors.Is(err, io.EOF) || e.shuttingDown() {
			return
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			e.met.idleTimeouts.Inc()
			return
		}
		// A malformed, oversized, or truncated hello is a wire-level fault;
		// answer with the typed classification so the peer learns why.
		e.met.codecErrors.Inc()
		_ = codec.sendError(errorCode(err), err.Error())
		return
	}
	if first.Type != TypeHello {
		_ = codec.sendError(CodeProtocol, "expected hello")
		return
	}
	s := &session{env: e, codec: codec, meterID: first.Hello.MeterID}
	step := s.readingStep
	switch v := first.Hello.Version; {
	case v == WireV2:
		e.met.rejected.Inc()
		_ = codec.sendError(CodeProtocol, "wire v2 is retired; dial with wire v3")
		return
	case v >= WireV3:
		if len(s.meterID) > maxMeterIDLen {
			e.met.rejected.Inc()
			_ = codec.sendError(CodeProtocol, "meter ID too long for wire v3")
			return
		}
		// Negotiate down to the highest version both ends speak. The reply
		// advertises the head-end's batch cap, and from here on both
		// directions are binary frames.
		err := codec.Send(&Envelope{Type: TypeHello, Hello: &HelloMsg{
			MeterID: s.meterID, Version: WireV3, MaxBatch: e.cfg.MaxBatch,
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
		if e.shuttingDown() {
			e.met.connsDrained.Inc()
			_ = codec.sendError(CodeShuttingDown, "head-end shutting down")
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(e.cfg.IdleTimeout))
		if !step() {
			return
		}
	}
}

// readFailed ends the session after a failed read, answering with the
// typed reason when the peer is still there to hear it.
func (s *session) readFailed(err error) bool {
	e := s.env
	if errors.Is(err, io.EOF) || e.shuttingDown() {
		// Clean hangup, or force-closed (or cut mid-read) during drain;
		// nothing to say.
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		e.met.idleTimeouts.Inc()
		e.log.Debug("session idle timeout", "meter", s.meterID)
		_ = s.codec.sendError(CodeIdleTimeout, "idle timeout")
		return false
	}
	// Anything else out of the codec is a wire-level fault: a malformed,
	// oversized, or truncated frame (oversized frames carry CodeOversized
	// on the way back).
	e.met.codecErrors.Inc()
	return s.reject(e.met.rejected, errorCode(err), err.Error())
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
	e := s.env
	if err := e.store.store(s.meterID, rs, payload); err != nil {
		e.log.Error("readings could not be made durable", "meter", s.meterID, "err", err)
		return s.reject(e.met.rejected, CodeStorage, err.Error())
	}
	e.met.ingestLatency.Observe(time.Since(start).Seconds())
	return true
}

// readingStep serves one v1 frame: a JSON reading, answered by a JSON ack.
func (s *session) readingStep() bool {
	e := s.env
	e.parked.Add(1)
	env, err := s.codec.Recv()
	e.parked.Add(-1)
	if err != nil {
		return s.readFailed(err)
	}
	if env.Type != TypeReading {
		return s.reject(e.met.rejected, CodeProtocol, "expected reading")
	}
	start := time.Now()
	r := env.Reading
	if r.MeterID != s.meterID {
		return s.reject(e.met.rejected, CodeSessionMismatch,
			fmt.Sprintf("%v: reading claims %q, session is %q", ErrSessionMismatch, r.MeterID, s.meterID))
	}
	if e.kr != nil {
		if err := e.kr.VerifyEnvelope(env); err != nil {
			e.log.Warn("reading failed MAC verification", "meter", s.meterID)
			return s.reject(e.met.authFailed, CodeAuth, err.Error())
		}
	}
	if !s.accept(start, []BatchReading{{Slot: r.Slot, KW: r.KW}}, nil) {
		return false
	}
	return s.codec.Send(&Envelope{Type: TypeAck, Ack: &AckMsg{Slot: r.Slot}}) == nil
}

// frameStep serves one v3 frame: a rebind (answered with the batch cap)
// or a batch (decoded, checked against the session's meter, verified over
// its raw payload bytes, stored, and acked).
func (s *session) frameStep() bool {
	e := s.env
	e.parked.Add(1)
	kind, body, err := s.codec.recvFrame()
	e.parked.Add(-1)
	if err != nil {
		return s.readFailed(err)
	}
	switch kind {
	case frameRebind:
		if len(body) == 0 || len(body) > maxMeterIDLen {
			return s.reject(e.met.rejected, CodeProtocol, fmt.Sprintf("rebind meter ID of %d bytes", len(body)))
		}
		s.meterID = string(body)
		return s.codec.writeFrame(appendRebindReplyFrame(s.codec.out[:0], e.cfg.MaxBatch)) == nil

	case frameBatch:
		start := time.Now()
		id, rs, n, err := decodePayload(body, e.cfg.MaxBatch)
		if err != nil {
			e.met.codecErrors.Inc()
			return s.reject(e.met.rejected, CodeProtocol, err.Error())
		}
		payload, tag := body[:n], body[n:]
		if len(tag) != 0 && len(tag) != macSize {
			e.met.codecErrors.Inc()
			return s.reject(e.met.rejected, CodeProtocol,
				fmt.Sprintf("batch frame carries %d bytes after its payload, want 0 or %d", len(tag), macSize))
		}
		if string(id) != s.meterID {
			return s.reject(e.met.rejected, CodeSessionMismatch,
				fmt.Sprintf("%v: batch claims %q, session is %q", ErrSessionMismatch, id, s.meterID))
		}
		if e.kr != nil {
			if err := e.kr.verifyPayload(s.meterID, rs[0].Slot, payload, tag); err != nil {
				e.log.Warn("batch failed MAC verification", "meter", s.meterID)
				return s.reject(e.met.authFailed, CodeAuth, err.Error())
			}
		}
		if !s.accept(start, rs, payload) {
			return false
		}
		e.met.batchFrames.Inc()
		e.met.batchSize.Observe(float64(len(rs)))
		return s.codec.writeFrame(appendAckFrame(s.codec.out[:0], len(rs), rs[len(rs)-1].Slot)) == nil

	default:
		return s.reject(e.met.rejected, CodeProtocol, fmt.Sprintf("unexpected frame kind %d", kind))
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
