package ami

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/meter"
)

// The fleet driver's session timing: one value each for every fleet.
const (
	fleetTimeout = 5 * time.Second       // dial, handshake and per-frame deadline
	fleetBackoff = 50 * time.Millisecond // base of the exponential retry delay
)

// DriveFleet streams a fleet of meters into the head-end at addr over a
// pool of reliable sessions. ids names the fleet: meter m is ids[m]. Of
// the sessions (<= 0 or more than the fleet means one per meter), session
// w owns meters w, w+S, w+2S, … and rebinds itself per meter instead of
// redialing, which keeps a large fleet from exhausting ephemeral ports.
//
// For each of its meters a session takes frames in order from next, which
// appends meter m's next frame to buf and returns it; an empty frame ends
// the meter, and an error ends the drive. Every frame goes out through
// SendAllContext, so transport failures redial as the bound meter and
// retry up to retries attempts. acked (if not nil) sees each acknowledged
// frame with its meter and the time from the first attempt to the ack; a
// frame that was not acked is never reported. next and acked are called
// concurrently for different meters, in order for one meter, and must not
// keep the frame they are handed: its buffer is reused.
//
// The first failure stops every session and is returned; cancelling ctx
// ends the drive with an error wrapping ctx.Err().
func DriveFleet(ctx context.Context, addr string, sessions, retries int, ids []string,
	next func(m int, buf []meter.Reading) ([]meter.Reading, error),
	acked func(m int, rs []meter.Reading, rtt time.Duration)) error {
	if sessions <= 0 || sessions > len(ids) {
		sessions = len(ids)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, sessions)
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := driveSession(ctx, addr, retries, ids, w, sessions, next, acked); err != nil {
				errc <- err
				cancel()
			}
		}()
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// driveSession runs session w of a stride-wide pool over its meters.
func driveSession(ctx context.Context, addr string, retries int, ids []string, w, stride int,
	next func(m int, buf []meter.Reading) ([]meter.Reading, error),
	acked func(m int, rs []meter.Reading, rtt time.Duration)) error {
	rc, err := NewReliableClient(addr, ids[w], nil, fleetTimeout, retries, fleetBackoff)
	if err != nil {
		return err
	}
	defer func() { _ = rc.Close() }()
	var buf []meter.Reading
	for m := w; m < len(ids); m += stride {
		if err := rc.Bind(ids[m]); err != nil {
			return err
		}
		for {
			rs, err := next(m, buf[:0])
			if err != nil {
				return fmt.Errorf("ami: meter %s: %w", ids[m], err)
			}
			if len(rs) == 0 {
				break
			}
			buf = rs
			start := time.Now()
			if err := rc.SendAllContext(ctx, rs); err != nil {
				return fmt.Errorf("ami: meter %s: %w", ids[m], err)
			}
			if acked != nil {
				acked(m, rs, time.Since(start))
			}
		}
	}
	return nil
}
