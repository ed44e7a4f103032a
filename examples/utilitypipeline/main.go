// Utilitypipeline: the full control-center loop over a real TCP AMI.
// Meters stream a week of readings to the head-end; one meter's traffic
// passes through a man-in-the-middle that rewrites it into the Integrated
// ARIMA attack; the F-DETA framework then evaluates every collected series
// and names the victim.
//
//	go run ./examples/utilitypipeline
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/ami"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/meter"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

const (
	consumers  = 5
	trainWeeks = 20
	victimIdx  = 2 // the consumer whose link the attacker owns
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "utilitypipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	// Synthesize the neighbourhood: 21 weeks of data; the first 20 train
	// the utility's models, week 21 is transmitted live.
	ds, err := dataset.Generate(dataset.Config{Residential: consumers, Weeks: trainWeeks + 1, Seed: 90})
	if err != nil {
		return err
	}

	// The utility enrolls every consumer from historic (trusted) data.
	framework, err := core.New(core.Config{Factory: core.DefaultDetectorFactory(0.05)})
	if err != nil {
		return err
	}
	trains := make(map[string]timeseries.Series, consumers)
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		id := fmt.Sprintf("meter-%d", c.ID)
		train, _, err := c.Demand.Split(trainWeeks)
		if err != nil {
			return err
		}
		trains[id] = train
		if err := framework.Enroll(id, train); err != nil {
			return err
		}
	}
	fmt.Printf("enrolled %d consumers\n", consumers)

	// Start the head-end with explicit lifecycle limits: idle meters are
	// cut after a minute, and shutdown force-closes stragglers after 2s.
	head := ami.NewSharded(1, ami.WithConfig(ami.HeadEndConfig{
		MaxConns:     64,
		IdleTimeout:  time.Minute,
		DrainTimeout: 2 * time.Second,
	}))
	headAddr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = head.Close() }()
	fmt.Printf("head-end on %s\n", headAddr)

	// The attacker owns the victim's communication link: a MITM rewrites
	// the victim's honest readings into the Integrated ARIMA attack vector
	// (over-reporting — the victim pays for Mallory's consumption).
	victimID := fmt.Sprintf("meter-%d", ds.Consumers[victimIdx].ID)
	replica, err := detect.NewIntegratedARIMADetector(trains[victimID], detect.IntegratedARIMAConfig{})
	if err != nil {
		return err
	}
	vector, err := attack.IntegratedARIMAAttack(replica, attack.Up, attack.IntegratedARIMAConfig{}, stats.NewRand(3))
	if err != nil {
		return err
	}
	mitm := ami.NewMITM(headAddr, func(r meter.Reading) meter.Reading {
		slotOfWeek := int(r.Slot) % timeseries.SlotsPerWeek
		r.KW = vector[slotOfWeek]
		return r
	})
	mitmAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = mitm.Close() }()
	fmt.Printf("man-in-the-middle on %s (intercepting %s)\n", mitmAddr, victimID)

	// Every meter transmits its final week. The victim's meter is honest —
	// the wire is not.
	for i := range ds.Consumers {
		c := &ds.Consumers[i]
		id := fmt.Sprintf("meter-%d", c.ID)
		m, err := meter.New(id, c.Demand, meter.Config{})
		if err != nil {
			return err
		}
		target := headAddr
		if id == victimID {
			target = mitmAddr
		}
		client, err := ami.DialBatch(target, id, nil, 5*time.Second)
		if err != nil {
			return err
		}
		start := timeseries.Slot(trainWeeks * timeseries.SlotsPerWeek)
		readings, err := m.ReportRange(start, timeseries.SlotsPerWeek)
		if err != nil {
			_ = client.Close()
			return err
		}
		if err := client.SendBatch(readings); err != nil {
			_ = client.Close()
			return err
		}
		if err := client.Close(); err != nil {
			return err
		}
	}
	// Every reading is acknowledged, so each one is already in the store
	// the control center reads: a session stores a reading before it acks.
	seen, rewritten := mitm.Stats()
	fmt.Printf("transmission complete; MITM saw %d readings, rewrote %d\n", seen, rewritten)

	// The ingestion counters must account for exactly the traffic sent: a
	// week from every meter, nothing rejected, nothing force-closed.
	st := head.Stats()
	fmt.Printf("head-end ingestion: %d conns, %d accepted, %d rejected, %d auth-failed, %d forced closes\n",
		st.TotalConns, st.Accepted, st.Rejected, st.AuthFailed, st.ForcedCloses)
	if want := int64(consumers * timeseries.SlotsPerWeek); st.Accepted != want {
		return fmt.Errorf("head-end accepted %d readings, want %d", st.Accepted, want)
	}
	if st.Rejected != 0 || st.AuthFailed != 0 || st.LimitRejected != 0 {
		return fmt.Errorf("unclean ingestion counters: %+v", st)
	}

	// The control center reassembles each consumer's week and evaluates it.
	fmt.Println("\ncontrol-center assessments:")
	flagged := ""
	for _, id := range head.Meters() {
		week := make(timeseries.Series, timeseries.SlotsPerWeek)
		for s := 0; s < timeseries.SlotsPerWeek; s++ {
			slot := timeseries.Slot(trainWeeks*timeseries.SlotsPerWeek + s)
			v, ok := head.Reading(id, slot)
			if !ok {
				return fmt.Errorf("missing reading for %s slot %d", id, slot)
			}
			week[s] = v
		}
		a, err := framework.Evaluate(id, trainWeeks, week)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s anomalous=%-5v label=%v\n", id, a.Anomalous, a.Kind)
		if a.Anomalous && a.Kind == core.SuspectedVictim {
			flagged = id
		}
	}
	if flagged != victimID {
		return fmt.Errorf("expected %s to be flagged as victim, got %q", victimID, flagged)
	}

	// Every meter disconnected after its batch, so shutdown must drain
	// cleanly with no force-closes. (Close is idempotent; the deferred
	// closes become no-ops.)
	if err := mitm.Close(); err != nil {
		return err
	}
	if err := head.Close(); err != nil {
		return err
	}
	if st := head.Stats(); st.ForcedCloses != 0 {
		return fmt.Errorf("clean shutdown force-closed %d connections", st.ForcedCloses)
	}
	fmt.Printf("\n%s correctly identified as a victimized neighbour: a thief shares their transformer.\n", victimID)
	return nil
}
