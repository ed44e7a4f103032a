package detect

import "repro/internal/timeseries"

// StreamDetector is the streaming counterpart of Detector: a stateful,
// per-consumer evaluator that advances one reading at a time over a rolling
// window and re-judges the window after every observation. It is the
// contract the always-on detection service (internal/serve) plugs detectors
// into: CompactKLDStream implements it today, and future ARIMA/masked
// streaming evaluators slot in without touching the service.
//
// A StreamDetector is not safe for concurrent use; the service serializes
// observations per consumer.
type StreamDetector interface {
	// Name identifies the underlying detector (e.g. "kld-5%").
	Name() string

	// Observe advances the stream with a trusted live reading and returns
	// the verdict over the updated window. Non-finite or negative readings
	// are rejected with an error and do not advance the stream.
	Observe(v float64) (Verdict, error)

	// ObserveStatus advances the stream with a quality-annotated reading:
	// StatusOK behaves exactly like Observe; Missing/Corrupt/Imputed keep
	// the trusted stand-in already in the window and count against
	// coverage. Below the coverage gate verdicts come back Inconclusive.
	ObserveStatus(v float64, status timeseries.ReadingStatus) (Verdict, error)

	// Filled returns how many live readings the window currently holds
	// (saturating at one week).
	Filled() int

	// Coverage returns the trusted fraction of the window in [0, 1].
	Coverage() float64

	// Reason words a verdict this stream returned. Observe and
	// ObserveStatus may leave Verdict.Reason empty so that the per-reading
	// path formats no text; Reason renders the explanation, in the words
	// the batch detector uses, only where a caller reads it.
	Reason(v Verdict) string

	// Reseed swaps the trusted historic seed week behind the stream — the
	// rolling re-train path. Slots holding live trusted readings are left
	// untouched (their verdict contribution must not flip under a
	// re-train); untouched seed slots and untrusted stand-ins are replaced
	// with the new seed week, restoring full coverage.
	Reseed(seed timeseries.Series) error
}

var _ StreamDetector = (*CompactKLDStream)(nil)
