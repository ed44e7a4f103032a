package serve

import "repro/internal/obs"

// The serve instrument names. Package-level constants (lint-enforced:
// fdetalint's metricnames check) so the fdeta_serve_* namespace is
// auditable in one place.
//
// The coverage/fill gauges are fleet aggregates computed across every
// registered consumer — they replace the per-detector-name gauges the
// detect streams used to write, which only ever reflected the most
// recently advanced stream.
const (
	metricObserved     = "fdeta_serve_observed_total"
	metricUnknownMeter = "fdeta_serve_unknown_meter_total"
	metricDropped      = "fdeta_serve_dropped_total"
	metricVerdicts     = "fdeta_serve_verdicts_total"
	metricAlerts       = "fdeta_serve_alerts_total"
	metricConsumers    = "fdeta_serve_consumers"
	metricRetrains     = "fdeta_serve_retrains_total"
	metricCovMin       = "fdeta_serve_coverage_min_ratio"
	metricCovMean      = "fdeta_serve_coverage_mean_ratio"
	metricFillMean     = "fdeta_serve_window_fill_mean_ratio"
)

// serveMetrics bundles the service's instruments.
type serveMetrics struct {
	okObs      *obs.Counter // result="ok": live readings observed
	missingObs *obs.Counter // result="missing": gap slots observed as missing
	staleObs   *obs.Counter // result="stale": duplicate/regressed slots skipped
	errObs     *obs.Counter // result="error": readings the stream rejected

	unknown *obs.Counter
	dropped *obs.Counter

	vNormal       *obs.Counter
	vAnomalous    *obs.Counter
	vInconclusive *obs.Counter

	alertLow     *obs.Counter
	alertMedium  *obs.Counter
	alertHigh    *obs.Counter
	alertCleared *obs.Counter

	consumers *obs.Gauge

	retrainOK  *obs.Counter
	retrainErr *obs.Counter

	covMin   *obs.Gauge
	covMean  *obs.Gauge
	fillMean *obs.Gauge
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	obsHelp := "readings processed by the streaming service, by result"
	verdictHelp := "streaming verdicts issued, by outcome"
	alertHelp := "alert events emitted, by tier"
	retrainHelp := "rolling re-train attempts, by result"
	return &serveMetrics{
		okObs: reg.Counter(metricObserved, obsHelp,
			obs.L("result", "ok")),
		missingObs: reg.Counter(metricObserved, obsHelp,
			obs.L("result", "missing")),
		staleObs: reg.Counter(metricObserved, obsHelp,
			obs.L("result", "stale")),
		errObs: reg.Counter(metricObserved, obsHelp,
			obs.L("result", "error")),
		unknown: reg.Counter(metricUnknownMeter,
			"readings for meters with no registered consumer state"),
		dropped: reg.Counter(metricDropped,
			"sink deliveries dropped after the service closed"),
		vNormal: reg.Counter(metricVerdicts, verdictHelp,
			obs.L("verdict", "normal")),
		vAnomalous: reg.Counter(metricVerdicts, verdictHelp,
			obs.L("verdict", "anomalous")),
		vInconclusive: reg.Counter(metricVerdicts, verdictHelp,
			obs.L("verdict", "inconclusive")),
		alertLow: reg.Counter(metricAlerts, alertHelp,
			obs.L("tier", "low")),
		alertMedium: reg.Counter(metricAlerts, alertHelp,
			obs.L("tier", "medium")),
		alertHigh: reg.Counter(metricAlerts, alertHelp,
			obs.L("tier", "high")),
		alertCleared: reg.Counter(metricAlerts, alertHelp,
			obs.L("tier", "cleared")),
		consumers: reg.Gauge(metricConsumers,
			"consumers with registered streaming state"),
		retrainOK: reg.Counter(metricRetrains, retrainHelp,
			obs.L("result", "ok")),
		retrainErr: reg.Counter(metricRetrains, retrainHelp,
			obs.L("result", "error")),
		covMin: reg.Gauge(metricCovMin,
			"minimum window coverage across all consumers (aggregate sweep)"),
		covMean: reg.Gauge(metricCovMean,
			"mean window coverage across all consumers (aggregate sweep)"),
		fillMean: reg.Gauge(metricFillMean,
			"mean live-fill fraction across all consumers (aggregate sweep)"),
	}
}

func (m *serveMetrics) countAlert(tier string) {
	switch tier {
	case "LOW":
		m.alertLow.Inc()
	case "MEDIUM":
		m.alertMedium.Inc()
	case "HIGH":
		m.alertHigh.Inc()
	case tierCleared:
		m.alertCleared.Inc()
	}
}
