// Package core implements the F-DETA framework: the five-step detection
// pipeline of Section VII of the paper, tying together the per-consumer
// anomaly detectors, the attacker-versus-victim labeling of Propositions 1
// and 2, the external-evidence false-positive filter, and the systematic
// topology-driven investigation of Section V.
//
// The five steps:
//
//  1. model expected consumption per consumer (detector training);
//  2. evaluate whether new readings are anomalous;
//  3. label anomalies: abnormally LOW readings mark the consumer as a
//     suspected attacker (Classes 2A/2B), abnormally HIGH readings mark a
//     victimized neighbour of an attacker (Class 1B, Proposition 2);
//  4. consult external evidence (holidays, severe weather, special events)
//     to suppress likely false positives; and
//  5. investigate remaining anomalies via smart-meter integrity checks and
//     grid-topology localization (Section V-B/C).
//
// F-DETA deliberately does not prescribe a single detection method; the
// framework accepts any set of detect.Detector implementations and combines
// their verdicts.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/detect"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/topology"
)

// AnomalyKind is the step-3 label.
type AnomalyKind int

// Anomaly labels.
const (
	// NotAnomalous: no detector fired.
	NotAnomalous AnomalyKind = iota
	// SuspectedAttacker: readings abnormally low — the consumer is likely
	// under-reporting (Classes 2A/2B).
	SuspectedAttacker
	// SuspectedVictim: readings abnormally high — a neighbour is likely
	// stealing in the consumer's name (Class 1B).
	SuspectedVictim
	// AnomalousUnclassified: anomalous but directionless (e.g. a pure
	// load-shift, Classes 3A/3B).
	AnomalousUnclassified
)

// String names the label.
func (k AnomalyKind) String() string {
	switch k {
	case NotAnomalous:
		return "not-anomalous"
	case SuspectedAttacker:
		return "suspected-attacker"
	case SuspectedVictim:
		return "suspected-victim"
	case AnomalousUnclassified:
		return "anomalous-unclassified"
	default:
		return fmt.Sprintf("AnomalyKind(%d)", int(k))
	}
}

// DetectorFactory builds the detector set for one consumer from that
// consumer's training series (step 1).
type DetectorFactory func(train timeseries.Series) ([]detect.Detector, error)

// DefaultDetectorFactory builds the paper's recommended stack: the KLD
// detector at the given significance level layered on the Integrated ARIMA
// detector (Section VII: "The KL divergence method complements those
// detection methods proposed in the literature").
func DefaultDetectorFactory(significance float64) DetectorFactory {
	return func(train timeseries.Series) ([]detect.Detector, error) {
		integrated, err := detect.NewIntegratedARIMADetector(train, detect.IntegratedARIMAConfig{})
		if err != nil {
			return nil, fmt.Errorf("core: building integrated ARIMA detector: %w", err)
		}
		kld, err := detect.NewKLDDetector(train, detect.KLDConfig{Significance: significance})
		if err != nil {
			return nil, fmt.Errorf("core: building KLD detector: %w", err)
		}
		return []detect.Detector{integrated, kld}, nil
	}
}

// Evidence is external context consulted in step 4.
type Evidence struct {
	// Explained reports that the anomaly has a benign external explanation.
	Explained bool
	// Note says what the explanation is (e.g. "public holiday").
	Note string
}

// EvidenceFunc supplies external evidence for a consumer-week. A nil
// function means no external evidence is available.
type EvidenceFunc func(consumerID string, weekIndex int) Evidence

// Config parameterizes the framework.
type Config struct {
	// Factory builds per-consumer detectors. Required.
	Factory DetectorFactory
	// Evidence supplies step-4 external context. Optional.
	Evidence EvidenceFunc
	// DirectionZ is the z-score threshold on the candidate week's mean
	// relative to the training weeks' mean distribution used by the step-3
	// direction label: above +DirectionZ marks a suspected victim
	// (abnormally high readings), below -DirectionZ a suspected attacker
	// (abnormally low). Default 1.
	DirectionZ float64
}

// Framework is the F-DETA control-center pipeline. It is safe for
// concurrent Evaluate calls after enrollment completes.
type Framework struct {
	cfg Config

	mu        sync.RWMutex
	consumers map[string]*consumerState
}

type consumerState struct {
	detectors []detect.Detector
	meanAvg   float64 // average of training-week means
	meanStd   float64 // std of training-week means
}

// New creates a framework.
func New(cfg Config) (*Framework, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("core: detector factory is required")
	}
	if cfg.DirectionZ == 0 {
		cfg.DirectionZ = 1
	}
	if cfg.DirectionZ < 0 {
		return nil, fmt.Errorf("core: direction z-threshold must be positive, got %g", cfg.DirectionZ)
	}
	return &Framework{
		cfg:       cfg,
		consumers: make(map[string]*consumerState),
	}, nil
}

// Enroll performs step 1 for one consumer: train the detector set on the
// consumer's historic readings.
func (f *Framework) Enroll(id string, train timeseries.Series) error {
	if id == "" {
		return fmt.Errorf("core: consumer ID is required")
	}
	dets, err := f.cfg.Factory(train)
	if err != nil {
		return fmt.Errorf("core: enrolling %s: %w", id, err)
	}
	if len(dets) == 0 {
		return fmt.Errorf("core: enrolling %s: factory returned no detectors", id)
	}
	matrix, err := timeseries.NewWeekMatrix(train, 0)
	if err != nil {
		return fmt.Errorf("core: enrolling %s: %w", id, err)
	}
	means := matrix.RowMeans()
	avg, std := stats.MeanStd(means)
	st := &consumerState{
		detectors: dets,
		meanAvg:   avg,
		meanStd:   std,
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.consumers[id]; exists {
		return fmt.Errorf("core: consumer %s already enrolled", id)
	}
	f.consumers[id] = st
	return nil
}

// Assessment is the outcome of steps 2-4 for one consumer-week.
type Assessment struct {
	ConsumerID string
	WeekIndex  int
	// Verdicts holds each detector's verdict, keyed by detector name.
	Verdicts map[string]detect.Verdict
	// Anomalous is true when any detector fired.
	Anomalous bool
	// Kind is the step-3 direction label.
	Kind AnomalyKind
	// Evidence is the step-4 external-evidence consultation result; only
	// meaningful when Anomalous.
	Evidence Evidence
	// ActionRequired is true when the anomaly survives the evidence filter
	// and step-5 investigation should proceed.
	ActionRequired bool
}

// Evaluate runs steps 2-4 on one reported week for an enrolled consumer.
func (f *Framework) Evaluate(id string, weekIndex int, week timeseries.Series) (*Assessment, error) {
	f.mu.RLock()
	st, ok := f.consumers[id]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: consumer %s not enrolled", id)
	}

	a := &Assessment{
		ConsumerID: id,
		WeekIndex:  weekIndex,
		Verdicts:   make(map[string]detect.Verdict, len(st.detectors)),
	}
	for _, d := range st.detectors {
		v, err := d.Detect(week)
		if err != nil {
			return nil, fmt.Errorf("core: %s on consumer %s: %w", d.Name(), id, err)
		}
		a.Verdicts[d.Name()] = v
		if v.Anomalous {
			a.Anomalous = true
		}
	}
	if !a.Anomalous {
		a.Kind = NotAnomalous
		return a, nil
	}

	// Step 3: direction from the z-score of the week's mean against the
	// training weeks' mean distribution.
	mean := stats.Mean(week)
	switch {
	case st.meanStd <= 0 || math.IsNaN(st.meanStd):
		a.Kind = AnomalousUnclassified
	case mean > st.meanAvg+f.cfg.DirectionZ*st.meanStd:
		a.Kind = SuspectedVictim
	case mean < st.meanAvg-f.cfg.DirectionZ*st.meanStd:
		a.Kind = SuspectedAttacker
	default:
		a.Kind = AnomalousUnclassified
	}

	// Step 4: external evidence.
	if f.cfg.Evidence != nil {
		a.Evidence = f.cfg.Evidence(id, weekIndex)
	}
	a.ActionRequired = !a.Evidence.Explained
	return a, nil
}

// Investigate performs step 5: given the grid topology and the current
// snapshot of actual/reported demands, run the balance checks, raise meter
// alarms, and localize the neighbourhood to inspect. When every internal
// node is metered the deepest-failure scan is used; otherwise the
// BFS serviceman search.
func (f *Framework) Investigate(tree *topology.Tree, snap *topology.Snapshot) (*InvestigationReport, error) {
	if tree == nil || snap == nil {
		return nil, fmt.Errorf("core: topology and snapshot are required")
	}
	bc := topology.DefaultChecker()
	allMetered := true
	for _, n := range tree.Internals() {
		if !n.Metered {
			allMetered = false
			break
		}
	}
	report := &InvestigationReport{AllInternalNodesMetered: allMetered}

	results, err := bc.CheckAll(tree, snap)
	if err != nil {
		return nil, fmt.Errorf("core: balance checks: %w", err)
	}
	for _, r := range results {
		if !r.Pass {
			report.FailingChecks = append(report.FailingChecks, r.NodeID)
		}
	}
	sort.Strings(report.FailingChecks)
	report.Alarms = topology.MeterAlarms(tree, results)

	var inv topology.Investigation
	if allMetered {
		inv, err = topology.LocalizeDeepest(tree, bc, snap)
	} else {
		inv, err = topology.ServicemanSearch(tree, bc, snap)
	}
	if err != nil {
		return nil, fmt.Errorf("core: localization: %w", err)
	}
	report.Investigation = inv

	// Escalation: meter-driven localization can come back empty when
	// compromised balance meters exonerate their own subtrees (the
	// Section V-B alarms reveal the inconsistency). A check is failing but
	// nobody is implicated — dispatch the serviceman with a portable meter
	// (Section V-C case 2), which lying meters cannot fool.
	if allMetered && len(inv.Suspects) == 0 &&
		(len(report.FailingChecks) > 0 || len(report.Alarms) > 0) {
		escalated, err := topology.ServicemanSearch(tree, bc, snap)
		if err != nil {
			return nil, fmt.Errorf("core: escalated search: %w", err)
		}
		report.Escalated = true
		report.Investigation = escalated
	}
	return report, nil
}

// InvestigationReport is the step-5 output.
type InvestigationReport struct {
	AllInternalNodesMetered bool
	FailingChecks           []string
	Alarms                  []topology.Alarm
	Investigation           topology.Investigation
	// Escalated reports that meter-driven localization was inconclusive
	// (compromised meters exonerated their subtrees) and the result comes
	// from the physical serviceman search instead.
	Escalated bool
}
