// Package serve is the always-on streaming detection service: it subscribes
// to a head-end's accepted-reading stream (ami.WithSink), keeps compact
// per-consumer streaming detector state behind the detect.StreamDetector
// interface, and emits risk-tiered alert events over an append-only JSONL
// log, an SSE feed, and HTTP state endpoints hung off the obs admin mux.
package serve

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Tier is the risk level of an alert, ordered so escalation is a plain
// comparison.
type Tier uint8

// Risk tiers, lowest to highest. TierNone is the quiescent state.
const (
	TierNone Tier = iota
	TierLow
	TierMedium
	TierHigh
)

// String names the tier as emitted in alert events.
func (t Tier) String() string {
	switch t {
	case TierLow:
		return "LOW"
	case TierMedium:
		return "MEDIUM"
	case TierHigh:
		return "HIGH"
	default:
		return "none"
	}
}

// AlertPolicy maps a consumer's verdict history to a risk tier. A tier is
// the maximum of the severity view (how far the score sits above the
// detector's threshold) and the persistence view (how long the stream has
// been continuously anomalous) — a brazen attack escalates on magnitude, a
// subtle one on duration.
type AlertPolicy struct {
	// MinStreak is how many consecutive anomalous verdicts a stream needs
	// before any alert fires (default 6 = three hours of half-hourly
	// readings). It suppresses the isolated threshold crossings every
	// detector with a finite false-positive rate produces.
	MinStreak int
	// MediumRatio and HighRatio are score/threshold ratios that escalate
	// severity (defaults 1.5 and 2.5).
	MediumRatio float64
	HighRatio   float64
	// MediumStreak and HighStreak are streak lengths that escalate
	// persistence (defaults 48 = one day, 96 = two days).
	MediumStreak int
	HighStreak   int
}

func (p AlertPolicy) withDefaults() AlertPolicy {
	if p.MinStreak == 0 {
		p.MinStreak = 6
	}
	if p.MediumRatio == 0 {
		p.MediumRatio = 1.5
	}
	if p.HighRatio == 0 {
		p.HighRatio = 2.5
	}
	if p.MediumStreak == 0 {
		p.MediumStreak = 48
	}
	if p.HighStreak == 0 {
		p.HighStreak = 96
	}
	return p
}

// Validate checks the policy's internal ordering.
func (p AlertPolicy) Validate() error {
	if p.MinStreak < 1 {
		return fmt.Errorf("serve: MinStreak must be >= 1, got %d", p.MinStreak)
	}
	if p.MediumRatio <= 1 || p.HighRatio < p.MediumRatio {
		return fmt.Errorf("serve: ratio tiers must satisfy 1 < medium (%g) <= high (%g)",
			p.MediumRatio, p.HighRatio)
	}
	if p.MediumStreak < p.MinStreak || p.HighStreak < p.MediumStreak {
		return fmt.Errorf("serve: streak tiers must satisfy min (%d) <= medium (%d) <= high (%d)",
			p.MinStreak, p.MediumStreak, p.HighStreak)
	}
	return nil
}

// tier maps one anomalous verdict's context to a risk tier.
func (p AlertPolicy) tier(streak int, ratio float64) Tier {
	if streak < p.MinStreak {
		return TierNone
	}
	t := TierLow
	if ratio >= p.MediumRatio || streak >= p.MediumStreak {
		t = TierMedium
	}
	if ratio >= p.HighRatio || streak >= p.HighStreak {
		t = TierHigh
	}
	return t
}

// AlertEvent is one entry of the alert stream: a tier escalation, or a
// clear (tier "CLEARED") when a previously alerting stream returns to
// normal. Events are emitted on transitions only, never per observation.
type AlertEvent struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Consumer  string    `json:"consumer"`
	Tier      string    `json:"tier"`
	Slot      int64     `json:"slot"`
	Score     float64   `json:"score"`
	Threshold float64   `json:"threshold"`
	Ratio     float64   `json:"ratio"`
	Streak    int       `json:"streak"`
	Detector  string    `json:"detector"`
	Reason    string    `json:"reason,omitempty"`
}

// tierCleared is the Tier field of a clear event.
const tierCleared = "CLEARED"

// alertRing keeps the most recent events for the /alerts endpoint.
type alertRing struct {
	mu     sync.Mutex
	events []AlertEvent
	next   int
	full   bool
}

func newAlertRing(n int) *alertRing {
	return &alertRing{events: make([]AlertEvent, n)}
}

func (r *alertRing) add(e AlertEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[r.next] = e
	r.next = (r.next + 1) % len(r.events)
	if r.next == 0 {
		r.full = true
	}
}

// recent returns up to n events, newest first.
func (r *alertRing) recent(n int) []AlertEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.events)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]AlertEvent, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.events[((r.next-1-i)+len(r.events))%len(r.events)])
	}
	return out
}

// jsonlLog appends alert events to an append-only writer, one JSON object
// per line, each line in one Write: the bytes json.Encoder would write.
type jsonlLog struct {
	mu   sync.Mutex
	w    io.Writer
	line []byte // line assembly scratch, reused across writes
}

func newJSONLLog(w io.Writer) *jsonlLog {
	if w == nil {
		return nil
	}
	return &jsonlLog{w: w}
}

// write appends one event, already encoded by json.Marshal, as a line.
func (l *jsonlLog) write(event []byte) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.line = append(append(l.line[:0], event...), '\n')
	//lint:ignore lockhold one writer means one line at a time: the lock exists precisely to serialize appends, and only alert deliveries (already off the detection path) contend on it
	_, err := l.w.Write(l.line)
	return err
}

// sseHub fans alert events out to live /alerts/stream subscribers. Slow
// subscribers drop events rather than stalling the detection path.
type sseHub struct {
	mu     sync.Mutex
	subs   map[chan []byte]struct{}
	closed bool
}

func newSSEHub() *sseHub {
	return &sseHub{subs: make(map[chan []byte]struct{})}
}

// subscribe returns a buffered event channel, or nil after close.
func (h *sseHub) subscribe() chan []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	ch := make(chan []byte, 64)
	h.subs[ch] = struct{}{}
	return ch
}

func (h *sseHub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

// broadcast hands b, shared and read-only, to every subscriber; with none
// it does nothing.
func (h *sseHub) broadcast(b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- b:
		default: // slow subscriber: drop, never block ingestion
		}
	}
}

func (h *sseHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}
