package detect

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// The seasonal-naive detector is kept for the tests: it is the
// trusted-history counterpoint of the band-anchoring experiment
// (ciriding_test.go) and a reference-week source for the quality tests.

var _ Detector = (*SeasonalNaiveDetector)(nil)

// SeasonalNaiveConfig parameterizes the seasonal-naive detector.
type SeasonalNaiveConfig struct {
	// Season is the comparison lag in slots (default one week, 336).
	Season int
	// Level is the confidence level of the per-reading band (default 0.95).
	Level float64
	// ViolationMargin is added to the calibrated violation fraction
	// (default 0.05).
	ViolationMargin float64
	// CalibrationWeeks bounds how many trailing training weeks calibrate
	// the threshold (default 8).
	CalibrationWeeks int
}

func (c SeasonalNaiveConfig) withDefaults() SeasonalNaiveConfig {
	if c.Season == 0 {
		c.Season = timeseries.SlotsPerWeek
	}
	if c.Level == 0 {
		c.Level = 0.95
	}
	if c.ViolationMargin == 0 {
		c.ViolationMargin = 0.05
	}
	if c.CalibrationWeeks == 0 {
		c.CalibrationWeeks = 8
	}
	return c
}

// SeasonalNaiveDetector forecasts each reading as the reading one season
// (default: one week) earlier in the *trusted training data* and flags
// weeks with too many readings outside the confidence band of the seasonal
// differences. It extends the detector family of ref [2] with the
// forecaster every practitioner reaches for first.
//
// Its band is comparable in width to the ARIMA detector's, but its anchor
// is fundamentally different: the ARIMA detector conditions on *reported*
// readings, so a CI-riding attack drags the band along and escalates
// without limit (Section VIII-B1), whereas the seasonal-naive reference is
// frozen trusted history — an attacker confined to this band can exceed
// real consumption by at most z·sigma per reading, ever. The unit tests
// quantify the difference.
type SeasonalNaiveDetector struct {
	maskedEval
	cfg       SeasonalNaiveConfig
	reference timeseries.Series // trailing season of trusted readings
	sigma     float64           // stddev of seasonal differences
	threshold float64           // tolerated violation fraction
	z         float64
}

// NewSeasonalNaiveDetector trains the detector.
func NewSeasonalNaiveDetector(train timeseries.Series, cfg SeasonalNaiveConfig) (*SeasonalNaiveDetector, error) {
	cfg = cfg.withDefaults()
	if cfg.Season < 2 {
		return nil, fmt.Errorf("detect: season must be >= 2, got %d", cfg.Season)
	}
	if cfg.Level <= 0 || cfg.Level >= 1 {
		return nil, fmt.Errorf("detect: level %g outside (0, 1)", cfg.Level)
	}
	if len(train) < 2*cfg.Season {
		return nil, fmt.Errorf("detect: need >= %d training readings, got %d", 2*cfg.Season, len(train))
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("detect: training series: %w", err)
	}

	// Seasonal differences over the whole training set.
	diffs := make([]float64, 0, len(train)-cfg.Season)
	for i := cfg.Season; i < len(train); i++ {
		diffs = append(diffs, train[i]-train[i-cfg.Season])
	}
	_, sigma := stats.MeanStd(diffs)
	if sigma == 0 || math.IsNaN(sigma) {
		sigma = 1e-9 // constant history: any deviation is anomalous
	}
	d := &SeasonalNaiveDetector{
		cfg:       cfg,
		reference: train[len(train)-cfg.Season:].Clone(),
		sigma:     sigma,
		z:         stats.StdNormalQuantile(0.5 + cfg.Level/2),
	}

	// Calibrate the tolerated violation fraction on trailing training
	// weeks, mirroring the ARIMA detector's empirical calibration.
	calWeeks := cfg.CalibrationWeeks
	avail := (len(train) - cfg.Season) / timeseries.SlotsPerWeek
	if calWeeks > avail {
		calWeeks = avail
	}
	worst := 0.0
	for w := 0; w < calWeeks; w++ {
		end := len(train) - w*timeseries.SlotsPerWeek
		start := end - timeseries.SlotsPerWeek
		violations := 0
		for i := start; i < end; i++ {
			if math.Abs(train[i]-train[i-cfg.Season]) > d.z*sigma {
				violations++
			}
		}
		frac := float64(violations) / timeseries.SlotsPerWeek
		if frac > worst {
			worst = frac
		}
	}
	d.threshold = worst + cfg.ViolationMargin
	d.initEval(d)
	return d, nil
}

// Name implements Detector.
func (d *SeasonalNaiveDetector) Name() string { return "seasonal-naive" }

// Bounds returns the confidence band for the reading at weekly slot s
// (0..Season-1), floored at zero.
func (d *SeasonalNaiveDetector) Bounds(s int) (lo, hi float64) {
	ref := d.reference[s%d.cfg.Season]
	lo = ref - d.z*d.sigma
	hi = ref + d.z*d.sigma
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// referenceWeek implements detectorCore. The detector's own trusted
// reference season doubles as the imputation anchor, so the seasonal-naive
// fill is literally the detector's forecast; a sub-week season is tiled
// cyclically to a full week.
func (d *SeasonalNaiveDetector) referenceWeek() timeseries.Series {
	ref := d.reference
	if len(ref) > timeseries.SlotsPerWeek {
		ref = ref[len(ref)-timeseries.SlotsPerWeek:]
	}
	if len(ref) < timeseries.SlotsPerWeek {
		tiled := make(timeseries.Series, timeseries.SlotsPerWeek)
		for i := range tiled {
			tiled[i] = ref[i%len(ref)]
		}
		ref = tiled
	}
	return ref
}

// detectWeek implements detectorCore: each reading is compared against the
// band around the reading one season earlier in the trusted reference.
func (d *SeasonalNaiveDetector) detectWeek(week timeseries.Series) (Verdict, error) {
	if err := validateWeek(week); err != nil {
		return Verdict{}, err
	}
	violations := 0
	for i, v := range week {
		lo, hi := d.Bounds(i)
		if v < lo || v > hi {
			violations++
		}
	}
	frac := float64(violations) / timeseries.SlotsPerWeek
	verdict := Verdict{
		Score:     frac,
		Threshold: d.threshold,
		Anomalous: frac > d.threshold,
	}
	if verdict.Anomalous {
		verdict.Reason = fmt.Sprintf("%.1f%% of readings outside the seasonal-naive %.0f%% band",
			100*frac, 100*d.cfg.Level)
	}
	return verdict, nil
}

func TestSeasonalNaiveValidation(t *testing.T) {
	train, _ := testConsumer(t, 77, 20, 18)
	if _, err := NewSeasonalNaiveDetector(make(timeseries.Series, 10), SeasonalNaiveConfig{}); err == nil {
		t.Error("short training should error")
	}
	if _, err := NewSeasonalNaiveDetector(train, SeasonalNaiveConfig{Season: 1}); err == nil {
		t.Error("season < 2 should error")
	}
	if _, err := NewSeasonalNaiveDetector(train, SeasonalNaiveConfig{Level: 2}); err == nil {
		t.Error("bad level should error")
	}
	bad := train.Clone()
	bad[0] = -1
	if _, err := NewSeasonalNaiveDetector(bad, SeasonalNaiveConfig{}); err == nil {
		t.Error("invalid training series should error")
	}
}

func TestSeasonalNaiveNormalWeekPasses(t *testing.T) {
	train, test := testConsumer(t, 78, 30, 28)
	d, err := NewSeasonalNaiveDetector(train, SeasonalNaiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "seasonal-naive" {
		t.Errorf("Name = %q", d.Name())
	}
	v, err := d.Detect(test.MustWeek(0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Anomalous {
		t.Errorf("normal week flagged: score=%g threshold=%g", v.Score, v.Threshold)
	}
}

func TestSeasonalNaiveFlagsFlatWeek(t *testing.T) {
	train, _ := testConsumer(t, 79, 30, 28)
	d, err := NewSeasonalNaiveDetector(train, SeasonalNaiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	flat := make(timeseries.Series, timeseries.SlotsPerWeek)
	v, err := d.Detect(flat)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Anomalous {
		t.Errorf("all-zero week should be flagged: score=%g threshold=%g", v.Score, v.Threshold)
	}
	if v.Reason == "" {
		t.Error("flagged verdict should carry a reason")
	}
}

func TestSeasonalNaiveResistsCIRidingEscalation(t *testing.T) {
	// The decisive property: the ARIMA detector's band follows the attack
	// vector (poisoned by reported data), so riding its upper bound
	// escalates theft; the seasonal-naive band is anchored to frozen
	// trusted history, so the best band-riding attack is capped at
	// reference + z·sigma per slot.
	train, _ := testConsumer(t, 80, 30, 28)
	sn, err := NewSeasonalNaiveDetector(train, SeasonalNaiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := NewARIMADetector(train, ARIMAConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// ARIMA-CI-riding attack (uncapped escalation would diverge; even the
	// physical 10x-peak cap leaves a huge haul).
	tr, err := ad.Tracker()
	if err != nil {
		t.Fatal(err)
	}
	arimaVec := make(timeseries.Series, timeseries.SlotsPerWeek)
	peak := 0.0
	for _, v := range train {
		if v > peak {
			peak = v
		}
	}
	for i := range arimaVec {
		_, hi := tr.Bounds()
		if hi > 10*peak {
			hi = 10 * peak
		}
		arimaVec[i] = hi
		tr.Observe(hi)
	}
	// Seasonal-naive band-riding attack.
	naiveVec := make(timeseries.Series, timeseries.SlotsPerWeek)
	for i := range naiveVec {
		_, hi := sn.Bounds(i)
		naiveVec[i] = hi
	}

	if arimaEnergy, naiveEnergy := arimaVec.Energy(), naiveVec.Energy(); naiveEnergy >= arimaEnergy/2 {
		t.Errorf("band-riding haul: seasonal-naive %.0f kWh should be far below ARIMA %.0f kWh",
			naiveEnergy, arimaEnergy)
	} else {
		t.Logf("band-riding haul: ARIMA %.0f kWh vs seasonal-naive %.0f kWh (%.0fx reduction)",
			arimaEnergy, naiveEnergy, arimaEnergy/naiveEnergy)
	}

	// And the seasonal detector flags the escalating ARIMA attack outright.
	v, err := sn.Detect(arimaVec)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Anomalous {
		t.Errorf("the escalated CI-riding vector should violate the frozen band (score=%g threshold=%g)",
			v.Score, v.Threshold)
	}
	// While its own band-riding vector evades it by construction.
	v, err = sn.Detect(naiveVec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Anomalous {
		t.Error("the band-riding vector should evade the seasonal-naive detector by construction")
	}
}

func TestSeasonalNaiveBoundsFloor(t *testing.T) {
	train, _ := testConsumer(t, 81, 12, 10)
	d, err := NewSeasonalNaiveDetector(train, SeasonalNaiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < timeseries.SlotsPerWeek; s++ {
		lo, hi := d.Bounds(s)
		if lo < 0 {
			t.Fatal("lower bound must be nonnegative")
		}
		if hi < lo {
			t.Fatal("band inverted")
		}
	}
	if d.sigma <= 0 {
		t.Error("sigma should be positive for stochastic data")
	}
}

func TestSeasonalNaiveConstantHistory(t *testing.T) {
	train := make(timeseries.Series, 3*timeseries.SlotsPerWeek)
	for i := range train {
		train[i] = 2
	}
	d, err := NewSeasonalNaiveDetector(train, SeasonalNaiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Any deviation from the constant history is anomalous.
	week := make(timeseries.Series, timeseries.SlotsPerWeek)
	for i := range week {
		week[i] = 3
	}
	v, err := d.Detect(week)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Anomalous {
		t.Error("deviation from constant history should be flagged")
	}
	// The constant week itself passes.
	same := make(timeseries.Series, timeseries.SlotsPerWeek)
	for i := range same {
		same[i] = 2
	}
	v, err = d.Detect(same)
	if err != nil {
		t.Fatal(err)
	}
	if v.Anomalous {
		t.Error("identical week should pass")
	}
}
