package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// TTDOutcome is one consumer's time-to-detection measurement.
type TTDOutcome struct {
	ConsumerID int
	// Detected reports whether the attack was flagged within the week.
	Detected bool
	// SlotsToDetection is the number of live attack readings observed
	// before the first flag (1-based); meaningful only when Detected.
	SlotsToDetection int
}

// TTDSummary aggregates time-to-detection over the population.
type TTDSummary struct {
	Outcomes []TTDOutcome
	// DetectedFrac is the fraction of consumers flagged within the week.
	DetectedFrac float64
	// MedianSlots and MeanSlots summarize detection latency among detected
	// consumers, in half-hour slots.
	MedianSlots float64
	MeanSlots   float64
	// MedianHours is MedianSlots expressed in hours.
	MedianHours float64
}

// TimeToDetection implements the ref-[3]-style streaming measurement the
// paper invokes in Section VII-D: for each consumer, a compact KLD stream
// (detect.CompactKLDStream) is seeded with the final training week and fed the Attack-Class-1B
// Integrated ARIMA vector one reading at a time; the latency is the number
// of attack readings observed before the detector first fires. The paper's
// week-long upper bound corresponds to 336 slots; the point of the
// construction is that detection typically happens much sooner.
func TimeToDetection(opts Options) (*TTDSummary, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(opts.Dataset)
	if err != nil {
		return nil, err
	}
	consumers := ds.Consumers
	if opts.MaxConsumers > 0 && opts.MaxConsumers < len(consumers) {
		consumers = consumers[:opts.MaxConsumers]
	}

	summary := &TTDSummary{}
	var latencies []float64
	for i := range consumers {
		c := &consumers[i]
		train, test, err := c.Demand.Split(opts.TrainWeeks)
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		normal := test.MustWeek(0)
		integ, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		kld, err := detect.NewKLDDetector(train, detect.KLDConfig{Significance: 0.05})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		rng := stats.SplitRand(opts.Seed, int64(c.ID))
		vec, err := worstIntegrated(integ, attack.Up, opts, rng, func(v timeseries.Series) (float64, error) {
			return pricingNeighbourLoss(opts, normal, v, timeseries.Slot(len(train)))
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}

		stream, err := kld.NewCompactStream(train.MustWeek(train.Weeks() - 1))
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", c.ID, err)
		}
		out := TTDOutcome{ConsumerID: c.ID}
		for s, v := range vec {
			verdict, err := stream.Observe(v)
			if err != nil {
				return nil, fmt.Errorf("experiments: consumer %d slot %d: %w", c.ID, s, err)
			}
			if verdict.Anomalous {
				out.Detected = true
				out.SlotsToDetection = s + 1
				break
			}
		}
		if out.Detected {
			latencies = append(latencies, float64(out.SlotsToDetection))
		}
		summary.Outcomes = append(summary.Outcomes, out)
	}
	if len(summary.Outcomes) > 0 {
		summary.DetectedFrac = float64(len(latencies)) / float64(len(summary.Outcomes))
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		summary.MedianSlots = stats.PercentileSorted(latencies, 50)
		summary.MeanSlots = stats.Mean(latencies)
		summary.MedianHours = summary.MedianSlots * timeseries.DeltaHours
	} else {
		summary.MedianSlots = math.NaN()
		summary.MeanSlots = math.NaN()
		summary.MedianHours = math.NaN()
	}
	return summary, nil
}
