package ami

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/meter"
)

// maxRetryBackoff caps the exponential retry schedule so a long outage
// does not grow the inter-attempt delay without bound.
const maxRetryBackoff = 30 * time.Second

// ReliableClient wraps Client with redial-and-retry. Delivery is safe to
// retry because the head-end stores readings idempotently by (meter, slot):
// a reading acknowledged after a lost ack is simply overwritten with the
// same value. Real AMI deployments need exactly this property — field
// networks (PLC, mesh radio) drop constantly.
type ReliableClient struct {
	addr    string
	meterID string
	key     []byte
	timeout time.Duration
	retries int
	backoff time.Duration

	c *Client
}

// NewReliableClient configures a reliable sender. retries is the number of
// redial attempts per frame (minimum 1); backoff is the base delay
// between attempts (0 for tests) — successive attempts back off
// exponentially from it, with jitter, capped at maxRetryBackoff.
func NewReliableClient(addr, meterID string, key []byte, timeout time.Duration, retries int, backoff time.Duration) (*ReliableClient, error) {
	if meterID == "" {
		return nil, fmt.Errorf("ami: meter ID is required")
	}
	if retries < 1 {
		retries = 1
	}
	return &ReliableClient{
		addr:    addr,
		meterID: meterID,
		key:     append([]byte(nil), key...),
		timeout: timeout,
		retries: retries,
		backoff: backoff,
	}, nil
}

// Bind switches the client to another meter. Like Client.Bind it does no
// I/O: a live session carries the rebind in the same write as its next
// frame, and a redial after a failure dials as the bound meter.
func (rc *ReliableClient) Bind(meterID string) error {
	if err := checkMeterID(meterID); err != nil {
		return err
	}
	rc.meterID = meterID
	if rc.c != nil {
		return rc.c.Bind(meterID)
	}
	return nil
}

// ensure dials if no live session exists.
func (rc *ReliableClient) ensure() error {
	if rc.c != nil {
		return nil
	}
	c, err := DialBatch(rc.addr, rc.meterID, rc.key, rc.timeout)
	if err != nil {
		return err
	}
	rc.c = c
	return nil
}

// drop closes and forgets the current session.
func (rc *ReliableClient) drop() {
	if rc.c != nil {
		_ = rc.c.Close()
		rc.c = nil
	}
}

// retryDelay computes the pause before the given attempt (attempt >= 1):
// base * 2^(attempt-1), capped at maxRetryBackoff, jittered uniformly over
// [d/2, 3d/2) so a fleet of meters recovering from the same outage does
// not stampede the head-end in lockstep.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepContext pauses for d or until the context ends, whichever is first.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SendAllContext delivers readings as batch frames (see Client.SendBatch),
// redialing on transport errors (and transient rejections such as a busy
// head-end) up to the retry budget, backing off exponentially with jitter
// between attempts. A retry resends the whole slice, so callers pass one
// frame's worth. Permanent protocol rejections — authentication failure, session
// mismatch — are returned immediately: retrying them cannot succeed.
// Cancelling the context aborts the retry loop, including mid-backoff.
// Errors wrap the underlying failure, so errors.Is still classifies them.
func (rc *ReliableClient) SendAllContext(ctx context.Context, rs []meter.Reading) error {
	if len(rs) == 0 {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < rc.retries; attempt++ {
		if attempt > 0 {
			if err := sleepContext(ctx, retryDelay(rc.backoff, attempt)); err != nil {
				return fmt.Errorf("ami: send aborted: %w", err)
			}
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("ami: send aborted: %w", err)
		}
		if err := rc.ensure(); err != nil {
			lastErr = err
			continue
		}
		err := rc.c.SendBatch(rs)
		if err == nil {
			return nil
		}
		lastErr = err
		// A permanent rejection arrives as a well-formed error response on
		// a healthy connection; give up immediately.
		if errors.Is(err, ErrRejected) {
			return err
		}
		rc.drop()
	}
	return fmt.Errorf("ami: giving up after %d attempts: %w", rc.retries, lastErr)
}

// Close terminates any live session.
func (rc *ReliableClient) Close() error {
	if rc.c == nil {
		return nil
	}
	err := rc.c.Close()
	rc.c = nil
	return err
}
