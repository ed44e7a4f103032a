package ami

import (
	"errors"
	"fmt"
)

// Wire error codes carried in the TypeError envelope's "code" field. They
// let a peer classify a rejection structurally instead of parsing message
// text — the message is for humans, the code is for programs.
const (
	// CodeProtocol: the envelope violated the protocol state machine
	// (wrong type, malformed frame). Permanent for this session.
	CodeProtocol = "protocol"
	// CodeSessionMismatch: a reading named a meter other than the one the
	// session's hello introduced. Permanent.
	CodeSessionMismatch = "session_mismatch"
	// CodeAuth: the reading's HMAC failed verification (or the meter has
	// no enrolled key). Permanent.
	CodeAuth = "auth"
	// CodeOversized: a wire frame exceeded the peer's MaxFrameSize bound.
	// Permanent for this session — the framing is unrecoverable once a
	// frame has been abandoned mid-stream.
	CodeOversized = "oversized"
	// CodeBusy: the head-end is at its connection limit. Transient — the
	// meter should back off and redial.
	CodeBusy = "busy"
	// CodeIdleTimeout: the session sat idle past the head-end's read
	// deadline and was closed. Transient.
	CodeIdleTimeout = "idle_timeout"
	// CodeShuttingDown: the head-end is draining for shutdown. Transient.
	CodeShuttingDown = "shutting_down"
	// CodeStorage: the head-end could not make the reading durable (WAL
	// append or sync failed) and did NOT store it. Transient — the reading
	// was not acknowledged, so the meter should retry it.
	CodeStorage = "storage"
)

// Sentinel errors for errors.Is classification of protocol failures.
var (
	// ErrRejected marks a permanent protocol-level rejection: the head-end
	// answered on a healthy connection and retrying the same reading cannot
	// succeed. Transient codes (busy, idle timeout, shutdown) do NOT match.
	ErrRejected = errors.New("ami: head-end rejected reading")
	// ErrSessionMismatch marks a reading whose meter ID differs from the
	// session's hello.
	ErrSessionMismatch = errors.New("ami: reading meter ID does not match session")
	// ErrBusy marks an accept-time rejection because the head-end is at
	// its concurrent-connection limit. Retryable after backoff.
	ErrBusy = errors.New("ami: head-end at connection limit")
	// ErrOversized marks a frame that exceeded the MaxFrameSize bound —
	// either one the local codec refused to assemble from the wire, or a
	// head-end rejection of a frame we sent.
	ErrOversized = errors.New("ami: frame exceeds size limit")
	// ErrListening is returned by a second Listen on a server that already
	// has a live listener.
	ErrListening = errors.New("ami: already listening")
	// ErrClosed is returned by Listen after Close.
	ErrClosed = errors.New("ami: server closed")
)

// codeIsPermanent reports whether a wire error code denotes a rejection
// that retrying cannot fix. An empty code (pre-taxonomy peer) is treated
// as permanent, matching the historical give-up-immediately behaviour.
func codeIsPermanent(code string) bool {
	switch code {
	case CodeBusy, CodeIdleTimeout, CodeShuttingDown, CodeStorage:
		return false
	}
	return true
}

// ProtocolError is the client-side form of a TypeError envelope: a typed
// rejection carrying the wire code, the head-end's message, and — for
// authentication failures — a reconstructed *AuthError cause.
type ProtocolError struct {
	Code    string
	Message string
	cause   error
}

// Error renders the rejection with its code for log lines.
func (e *ProtocolError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("ami: head-end rejected reading: %s", e.Message)
	}
	return fmt.Sprintf("ami: head-end rejected reading [%s]: %s", e.Code, e.Message)
}

// Unwrap exposes the reconstructed cause (an *AuthError for CodeAuth) to
// errors.As.
func (e *ProtocolError) Unwrap() error { return e.cause }

// Is matches the package sentinels: every permanent rejection matches
// ErrRejected; ErrSessionMismatch and ErrBusy match their specific codes.
func (e *ProtocolError) Is(target error) bool {
	switch target {
	case ErrRejected:
		return codeIsPermanent(e.Code)
	case ErrSessionMismatch:
		return e.Code == CodeSessionMismatch
	case ErrBusy:
		return e.Code == CodeBusy
	case ErrOversized:
		return e.Code == CodeOversized
	}
	return false
}

// errorCode derives the wire code for a server-side error from its type.
func errorCode(err error) string {
	var ae *AuthError
	switch {
	case errors.As(err, &ae):
		return CodeAuth
	case errors.Is(err, ErrSessionMismatch):
		return CodeSessionMismatch
	case errors.Is(err, ErrOversized):
		return CodeOversized
	}
	return CodeProtocol
}
