package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/pricing"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// subject is one consumer prepared by the evaluation's own Class-1B
// protocol, which every experiment outside Tables II and III runs on: the
// split and detector suite from the evaluation's training pass, the normal
// test week, and, when drawn, the most profitable of Trials evading
// Integrated-ARIMA draws (Section VIII-B) together with the consumer's
// attack stream past that draw.
type subject struct {
	id          int
	train, test timeseries.Series
	normal      timeseries.Series
	suite       *detect.TrainedSuite
	vec1B       timeseries.Series
	rng         interface{ Int63() int64 }
}

// preparePopulation prepares the population capped at opts.MaxConsumers.
func preparePopulation(opts Options, draw bool) ([]subject, error) {
	consumers, err := population(opts)
	if err != nil {
		return nil, err
	}
	return prepare(consumers, opts, draw)
}

// population is opts' population capped at opts.MaxConsumers.
func population(opts Options) ([]dataset.Consumer, error) {
	ds, err := generate(opts)
	if err != nil {
		return nil, err
	}
	consumers := ds.Consumers
	if opts.MaxConsumers > 0 && opts.MaxConsumers < len(consumers) {
		consumers = consumers[:opts.MaxConsumers]
	}
	return consumers, nil
}

// prepareConsumer prepares one figure's subject consumer, with its draw.
func prepareConsumer(opts Options, consumerID int) (*subject, error) {
	ds, err := generate(opts)
	if err != nil {
		return nil, err
	}
	c, err := ds.ByID(consumerID)
	if err != nil {
		return nil, err
	}
	subs, err := prepare([]dataset.Consumer{*c}, opts, true)
	if err != nil {
		return nil, err
	}
	return &subs[0], nil
}

// generate validates opts and generates its whole population.
func generate(opts Options) (*dataset.Dataset, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return dataset.Generate(opts.Dataset)
}

// prepare trains the consumers in one population-trainer pass
// (trainConsumers, at opts.Parallelism) and, when draw is set, draws each
// one's Class-1B vector from its attack stream exactly as evaluateConsumer
// does. The population is fault-free: Options.Fault applies to the
// evaluation alone.
func prepare(consumers []dataset.Consumer, opts Options, draw bool) ([]subject, error) {
	need := make([]bool, len(consumers))
	for i := range need {
		need[i] = true
	}
	trained, _, err := trainConsumers(consumers, need, opts, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	subs := make([]subject, len(consumers))
	for i, tc := range trained {
		id := consumers[i].ID
		if tc.err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", id, tc.err)
		}
		s := subject{id: id, train: tc.train, test: tc.test, normal: tc.test.MustWeek(0), suite: tc.suite}
		if draw {
			start := timeseries.Slot(len(s.train))
			normalBill := pricing.Bill(opts.Scheme, s.normal, start)
			s.rng = stats.SplitRand(opts.Seed, int64(id))
			s.vec1B, err = worstIntegrated(s.suite.Integrated(), attack.Up, opts, s.rng, func(vec timeseries.Series) (float64, error) {
				return pricing.Bill(opts.Scheme, vec, start) - normalBill, nil
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: consumer %d: %w", id, err)
			}
		}
		subs[i] = s
	}
	return subs, nil
}

// Rates is one detector's Class-1B tally over a prepared population.
type Rates struct {
	DetectionRate float64 // fraction of consumers whose attack week was flagged
	FalsePosRate  float64 // fraction of consumers whose normal week was flagged
	SuccessRate   float64 // Section VIII-E combined rule: attack flagged, normal week not
}

// rates judges every subject's Class-1B vector and normal week with the
// detector det gives for it.
func rates(subs []subject, det func(s *subject) (detect.Detector, error)) (Rates, error) {
	var detected, fps, success int
	for i := range subs {
		s := &subs[i]
		d, err := det(s)
		if err != nil {
			return Rates{}, fmt.Errorf("experiments: consumer %d: %w", s.id, err)
		}
		va, err := d.Detect(s.vec1B)
		if err != nil {
			return Rates{}, err
		}
		vn, err := d.Detect(s.normal)
		if err != nil {
			return Rates{}, err
		}
		if va.Anomalous {
			detected++
		}
		if vn.Anomalous {
			fps++
		}
		if va.Anomalous && !vn.Anomalous {
			success++
		}
	}
	n := float64(len(subs))
	return Rates{
		DetectionRate: float64(detected) / n,
		FalsePosRate:  float64(fps) / n,
		SuccessRate:   float64(success) / n,
	}, nil
}

// kldRates tallies a KLD detector trained per subject with cfg: the
// variant under test.
func kldRates(subs []subject, cfg detect.KLDConfig) (Rates, error) {
	return rates(subs, func(s *subject) (detect.Detector, error) {
		return detect.NewKLDDetector(s.train, cfg)
	})
}

// suiteKLD5 is the suite's 5%-significance KLD detector, Table II's
// kld-5 row.
func suiteKLD5(s *subject) (detect.Detector, error) { return s.suite.KLD(0.05) }
