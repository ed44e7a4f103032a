package obs

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
)

// Structured logging: every component asks for Logger("<component>") and
// gets a slog.Logger pre-scoped with a component attribute. The process
// default is silent — library code must never spray a caller's stdout, and
// the paper-artifact commands require byte-identical output — and the
// long-running daemons (amiserver, fdeta serve) opt in with EnableLogging
// at warning level on stderr.

// base holds the process-wide base logger.
var base atomic.Pointer[slog.Logger]

func init() {
	base.Store(slog.New(discardHandler{}))
}

// EnableLogging points the base logger at w with a text handler at the given
// level.
func EnableLogging(w io.Writer, level slog.Leveler) {
	base.Store(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})))
}

// Logger returns the base logger scoped to one component ("ami", "detect",
// "eval", "admin", ...).
func Logger(component string) *slog.Logger {
	return base.Load().With(slog.String("component", component))
}

// discardHandler drops every record without formatting it. Cheaper than a
// TextHandler on io.Discard: Enabled short-circuits before any attribute
// rendering happens.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
