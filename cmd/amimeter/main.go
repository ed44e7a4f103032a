// Command amimeter simulates one consumer smart meter: it synthesizes a
// load profile, measures it, and streams the readings to an AMI head-end
// (cmd/amiserver). With -underreport it compromises its own reports —
// a Class 2A attacker in a box.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ami"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/meter"
	"repro/internal/timeseries"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("amimeter", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7425", "head-end address")
	id := fs.String("id", "meter-1", "meter identifier")
	seed := fs.Int64("seed", 1, "load profile seed")
	slots := fs.Int("slots", timeseries.SlotsPerDay, "number of readings to report")
	underreport := fs.Float64("underreport", 0, "fraction to shave off every report (0 = honest, 0.5 = report half)")
	interval := fs.Duration("interval", 0, "delay between readings (0 = as fast as possible)")
	retries := fs.Int("retries", 3, "delivery attempts per frame")
	batch := fs.Int("batch", 1, "readings per wire-v3 batch frame (>= 1)")
	faultSpec := fs.String("fault", "", "inject meter faults, e.g. 'dropout:0.1+stuckat:1' (dropped slots are never sent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *underreport < 0 || *underreport >= 1 {
		fmt.Fprintln(os.Stderr, "amimeter: -underreport must be in [0, 1)")
		return 2
	}
	if *batch < 1 {
		fmt.Fprintln(os.Stderr, "amimeter: -batch must be >= 1")
		return 2
	}
	scens, err := fault.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amimeter:", err)
		return 2
	}

	ds, err := dataset.Generate(dataset.Config{Residential: 1, Weeks: 2, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "amimeter:", err)
		return 1
	}
	series := ds.Consumers[0].Demand
	var mask timeseries.Mask
	if len(scens) > 0 {
		// Key the fault stream on the meter identity so a fleet of amimeter
		// processes sharing one seed still draws distinct fault patterns.
		h := fnv.New64a()
		_, _ = h.Write([]byte(*id))
		plan := fault.Plan{Seed: *seed, Scenarios: scens}
		r, err := plan.Realize(int64(h.Sum64()), len(series))
		if err != nil {
			fmt.Fprintln(os.Stderr, "amimeter:", err)
			return 1
		}
		series, mask, err = r.Apply(series)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amimeter:", err)
			return 1
		}
		fmt.Fprintf(out, "amimeter: %s FAULTY — plan %s hits %d of %d slots\n",
			*id, plan, r.Bad(), r.Len())
	}
	m, err := meter.New(*id, series, meter.Config{ErrorSigma: 0.005, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "amimeter:", err)
		return 1
	}
	if *underreport > 0 {
		frac := 1 - *underreport
		m.Compromise(func(_ timeseries.Slot, v float64) float64 { return v * frac })
		fmt.Fprintf(out, "amimeter: %s COMPROMISED — reporting %.0f%% of measured demand\n", *id, frac*100)
	}

	client, err := ami.NewReliableClient(*addr, *id, nil, 5*time.Second, *retries, 100*time.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amimeter:", err)
		return 1
	}
	defer func() { _ = client.Close() }()

	// An interrupt aborts delivery mid-retry-backoff rather than leaving
	// the process stuck sleeping through an exponential schedule.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	n := *slots
	if n > m.Slots() {
		n = m.Slots()
	}
	sent := 0
	// Surviving readings accumulate into frames of -batch readings; the
	// interval paces frames, the way a real meter spools a reporting window
	// and uploads it in one go.
	var pending []meter.Reading
	flush := func(last int) (int, bool) {
		if err := client.SendAllContext(ctx, pending); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(out, "amimeter: %s interrupted after %d readings\n", *id, last)
				return 130, false
			}
			fmt.Fprintln(os.Stderr, "amimeter:", err)
			return 1, false
		}
		sent += len(pending)
		pending = pending[:0]
		return 0, true
	}
	// One ticker paces every delivery; allocating a timer per reading
	// (time.After in the loop) would leak one timer per slot sent.
	var pace *time.Ticker
	if *interval > 0 {
		pace = time.NewTicker(*interval)
		defer pace.Stop()
	}
	for s := 0; s < n; s++ {
		if len(mask) > 0 && mask[s] == timeseries.StatusMissing {
			continue // the backhaul dropped this slot: nothing to deliver
		}
		r, err := m.Report(timeseries.Slot(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "amimeter:", err)
			return 1
		}
		pending = append(pending, r)
		if len(pending) < *batch {
			continue
		}
		if code, ok := flush(s); !ok {
			return code
		}
		if pace != nil {
			select {
			case <-ctx.Done():
				fmt.Fprintf(out, "amimeter: %s interrupted after %d readings\n", *id, s+1)
				return 130
			case <-pace.C:
			}
		}
	}
	if len(pending) > 0 {
		if code, ok := flush(n); !ok {
			return code
		}
	}
	if dropped := n - sent; dropped > 0 {
		fmt.Fprintf(out, "amimeter: %s reported %d readings to %s (%d dropped by faults)\n",
			*id, sent, *addr, dropped)
		return 0
	}
	fmt.Fprintf(out, "amimeter: %s reported %d readings to %s\n", *id, sent, *addr)
	return 0
}
