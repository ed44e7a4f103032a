// Livemonitor: the control center as an *online* algorithm (Section VII-A).
// Meters stream readings over TCP; a man-in-the-middle begins falsifying
// one consumer's readings mid-stream; the streaming detection service — a
// KLD window per consumer, seeded with trusted history (Section VII-D) and
// fed by the head-end's accepted-reading tap — raises an alert hours into
// the attack rather than waiting for a full week of data.
//
//	go run ./examples/livemonitor
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/ami"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/meter"
	"repro/internal/serve"
	"repro/internal/timeseries"
)

const (
	consumers  = 4
	trainWeeks = 28
	victimIdx  = 1
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livemonitor:", err)
		os.Exit(1)
	}
}

func run() error {
	ds, err := dataset.Generate(dataset.Config{Residential: consumers, Weeks: trainWeeks + 1, Seed: 114})
	if err != nil {
		return err
	}

	// Enroll every consumer with the streaming service: a detector trained
	// on the trusted history, its window seeded with the final training
	// week, expecting its first live reading at the start of the live week.
	srv, err := serve.New()
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	liveStart := timeseries.Slot(trainWeeks * timeseries.SlotsPerWeek)
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		train, _, err := c.Demand.Split(trainWeeks)
		if err != nil {
			return err
		}
		det, err := detect.NewKLDDetector(train, detect.KLDConfig{Significance: 0.05})
		if err != nil {
			return err
		}
		stream, err := det.NewCompactStream(train.MustWeek(trainWeeks - 1))
		if err != nil {
			return err
		}
		if err := srv.Register(fmt.Sprintf("meter-%d", c.ID), stream, int64(liveStart)); err != nil {
			return err
		}
	}
	fmt.Printf("monitoring %d consumers online\n", srv.Consumers())

	// AMI plumbing: a head-end whose accepted-reading tap feeds the service
	// — the control center observes what the head-end stored (the
	// possibly-falsified value), not what the meter sent — and a MITM on
	// the victim's link that starts zeroing readings 24 hours (48 slots)
	// into the live week: a maximal Class-2A theft beginning mid-stream.
	head := ami.NewSharded(1, ami.WithSink(srv.Sink()))
	headAddr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = head.Close() }()

	victimID := fmt.Sprintf("meter-%d", ds.Consumers[victimIdx].ID)
	const attackStartSlot = 48
	mitm := ami.NewMITM(headAddr, func(r meter.Reading) meter.Reading {
		if int(r.Slot)%timeseries.SlotsPerWeek >= attackStartSlot {
			r.KW = 0
		}
		return r
	})
	mitmAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = mitm.Close() }()
	fmt.Printf("attack scheduled: %s's link falsified from hour %d of the live week\n\n",
		victimID, attackStartSlot/2)

	// Stream the live week, slot by slot across all meters — the
	// control center ingests in collection order.
	clients := make(map[string]*ami.Client, consumers)
	meters := make(map[string]*meter.SmartMeter, consumers)
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		id := fmt.Sprintf("meter-%d", c.ID)
		m, err := meter.New(id, c.Demand, meter.Config{})
		if err != nil {
			return err
		}
		meters[id] = m
		target := headAddr
		if id == victimID {
			target = mitmAddr
		}
		client, err := ami.DialBatch(target, id, nil, 5*time.Second)
		if err != nil {
			return err
		}
		defer func() { _ = client.Close() }()
		clients[id] = client
	}
	for s := 0; s < timeseries.SlotsPerWeek; s++ {
		for id, m := range meters {
			r, err := m.Report(liveStart + timeseries.Slot(s))
			if err != nil {
				return err
			}
			if err := clients[id].SendBatch([]meter.Reading{r}); err != nil {
				return err
			}
		}
	}
	// Every reading is acknowledged. Drain both tiers: the head-end's
	// queues into its store and tap, then the service's queues into the
	// detectors.
	head.Flush()
	srv.Flush()

	// Alerts come newest first; report them in the order they fired. A
	// consumer's first event is always an escalation (a clear only follows
	// one), so the victim's first event is the moment it was flagged.
	alerts := srv.Alerts(0)
	flagged := -1
	for i := len(alerts) - 1; i >= 0; i-- {
		a := alerts[i]
		s := int(a.Slot - int64(liveStart))
		fmt.Printf("ALERT %-7s at live slot %d (%s): %s — score %.3f vs threshold %.3f, %d anomalous in a row\n",
			a.Tier, s, slotClock(s), a.Consumer, a.Score, a.Threshold, a.Streak)
		if a.Consumer == victimID && flagged < 0 {
			flagged = s
		}
	}
	if flagged < 0 {
		return fmt.Errorf("the attack on %s was never detected", victimID)
	}
	if flagged < attackStartSlot {
		return fmt.Errorf("%s was flagged at live slot %d, before the attack began at slot %d",
			victimID, flagged, attackStartSlot)
	}
	if flagged >= timeseries.SlotsPerWeek/2 {
		return fmt.Errorf("%s was not flagged until live slot %d, past mid-week", victimID, flagged)
	}
	fmt.Printf("\n%s flagged %.1f hours after the attack began — no need to wait for 336 readings.\n",
		victimID, float64(flagged-attackStartSlot+1)*timeseries.DeltaHours)
	return nil
}

// slotClock renders a weekly slot as day/hh:mm.
func slotClock(s int) string {
	day := s / timeseries.SlotsPerDay
	h := (s % timeseries.SlotsPerDay) / 2
	m := (s % 2) * 30
	return fmt.Sprintf("day %d %02d:%02d", day, h, m)
}
