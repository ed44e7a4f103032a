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
	batch   bool // dial wire v3 and deliver via batch frames

	c *Client
}

// NewReliableClient configures a reliable sender. retries is the number of
// redial attempts per reading (minimum 1); backoff is the base delay
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

// NewReliableBatchClient is NewReliableClient over wire v3: sessions are
// dialed with DialBatch and SendAll delivers via batch frames, so a retry
// redials and resends whole frames. Batch delivery stays idempotent for
// the same reason single readings are — the head-end stores by (meter,
// slot), so a frame re-sent after a lost ack overwrites identical values.
func NewReliableBatchClient(addr, meterID string, key []byte, timeout time.Duration, retries int, backoff time.Duration) (*ReliableClient, error) {
	rc, err := NewReliableClient(addr, meterID, key, timeout, retries, backoff)
	if err != nil {
		return nil, err
	}
	rc.batch = true
	return rc, nil
}

// ensure dials if no live session exists.
func (rc *ReliableClient) ensure() error {
	if rc.c != nil {
		return nil
	}
	dial := DialAuth
	if rc.batch {
		dial = DialBatch
	}
	c, err := dial(rc.addr, rc.meterID, rc.key, rc.timeout)
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

// SendContext delivers one reading, redialing on transport errors (and
// transient rejections such as a busy head-end) up to the retry budget,
// backing off exponentially with jitter between attempts. Permanent
// protocol rejections — authentication failure, session mismatch — are
// returned immediately: retrying a rejected reading cannot succeed.
// Cancelling the context aborts the retry loop, including mid-backoff.
func (rc *ReliableClient) SendContext(ctx context.Context, r meter.Reading) error {
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
		err := rc.c.Send(r)
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

// SendAllContext delivers a batch. On a v1 client each reading is retried
// independently; a batch client delivers the whole set as v3 frames,
// retrying the set on transport errors. Errors wrap the underlying
// failure, so errors.Is still classifies them.
func (rc *ReliableClient) SendAllContext(ctx context.Context, rs []meter.Reading) error {
	if rc.batch {
		return rc.sendBatchContext(ctx, rs)
	}
	for i := range rs {
		if err := rc.SendContext(ctx, rs[i]); err != nil {
			return fmt.Errorf("ami: reading %d: %w", i, err)
		}
	}
	return nil
}

// sendBatchContext delivers readings as v3 batch frames with the same
// redial-and-retry loop SendContext applies to single readings.
func (rc *ReliableClient) sendBatchContext(ctx context.Context, rs []meter.Reading) error {
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
