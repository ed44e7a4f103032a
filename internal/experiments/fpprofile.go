package experiments

import (
	"fmt"

	"repro/internal/detect"
)

// FPPoint is one detector's false-positive calibration over the test split.
type FPPoint struct {
	Detector string
	// Significance is the nominal α the detector was configured with
	// (0 for the non-KLD detectors).
	Significance float64
	// FPRate is the measured fraction of normal consumer-weeks flagged.
	FPRate float64
	// ConsumerWeeks is the sample size.
	ConsumerWeeks int
}

// FalsePositiveProfile measures each detector's empirical false-positive
// rate across every normal test week of every consumer — the calibration
// Section VIII-E's penalty scheme rests on. A well-calibrated KLD detector
// at significance α should flag ≈ α of normal weeks; the measured excess
// over α quantifies how much the unlabeled anomalies in the training data
// (vacations, parties — Section VIII-A) inflate the realized rate.
func FalsePositiveProfile(opts Options) ([]FPPoint, error) {
	subs, err := preparePopulation(opts, false)
	if err != nil {
		return nil, err
	}
	points := []FPPoint{
		{Detector: "integrated-arima"},
		{Detector: "kld-5%", Significance: 0.05},
		{Detector: "kld-10%", Significance: 0.10},
	}
	flagged, weeks := make([]int, len(points)), 0
	for i := range subs {
		s := &subs[i]
		kld5, err := s.suite.KLD(0.05)
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", s.id, err)
		}
		kld10, err := s.suite.KLD(0.10)
		if err != nil {
			return nil, fmt.Errorf("experiments: consumer %d: %w", s.id, err)
		}
		dets := []detect.Detector{s.suite.Integrated(), kld5, kld10}
		for w := 0; w < s.test.Weeks(); w++ {
			week := s.test.MustWeek(w)
			for j, d := range dets {
				v, err := d.Detect(week)
				if err != nil {
					return nil, err
				}
				if v.Anomalous {
					flagged[j]++
				}
			}
		}
		weeks += s.test.Weeks()
	}
	for j := range points {
		points[j].FPRate = float64(flagged[j]) / float64(weeks)
		points[j].ConsumerWeeks = weeks
	}
	return points, nil
}
