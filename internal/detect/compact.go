package detect

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// CompactKLDStream answers the paper's week-long-latency objection to the
// KLD detector (Section VII-D): "the new week vector can be completed with
// trusted data from a week in the training set. As new consumption readings
// are recorded, they will replace the historic readings in the week vector.
// If the week vector contains sufficiently anomalous readings right at the
// beginning, it may appear anomalous before a full week of new data has
// been collected." Ref [3] uses the same construction to measure
// time-to-detection. The stream is seeded with a trusted historic week;
// each Observe replaces the next weekly slot with the live reading and
// re-judges the mixed window.
//
// Live AMI feeds lose and corrupt readings, so the stream also accepts
// quality-annotated observations (ObserveStatus): a Missing or Corrupt slot
// keeps the trusted value already in the window (seasonal carry from the
// historic seed, or the previous lap's live reading) and counts against the
// window's coverage. When the fraction of trusted window slots falls below
// the policy's coverage gate, verdicts are returned Inconclusive instead of
// definite — a mostly-dead meter must read as *faulty*, not as evidence of
// theft. The serve layer aggregates Coverage and Filled across consumers
// into fleet-level gauges.
//
// The stream holds per-slot *bin indices* instead of raw readings. A raw
// 336-slot float64 window alone is 2688 bytes; the compact state — one
// byte per slot, a uint16 tally per histogram bin, a bad-slot bitset, and
// its own copy of the frozen bin edges and X distribution — fits a consumer
// in well under 1 KiB, so a million-meter fleet's streaming state fits in
// RAM (the serve layer's memory accounting test pins this).
//
// Carrying the edges and X probabilities itself makes the state
// self-contained: the service can drop the full KLDDetector (training
// matrix, per-week divergences, scratch pools) after constructing the
// stream. The trade is that raw window values are gone — a Reseed rebins
// the new seed only into slots that hold no trusted live reading, because
// live slots keep their already-binned contribution.
//
// Verdicts are bit-identical to re-running KLDDetector.Detect over the raw
// mixed window (the package tests keep that raw-window stream as a
// reference): the window distribution is counts/336, exactly what
// Histogram.DistributionInto computes (counts below 2^53 are exact in
// float64), and the divergence and judgement run through the same
// stats.KLDivergenceToBaseline and kldJudge code paths against the X
// baseline the detector normalised at training.
//
// Two pieces of repeated work stay off the per-reading path. The score is a
// function of the tally alone, so the stream remembers it: an observation
// that leaves the tally unchanged (a reading in the slot's old bin, or a
// Missing/Corrupt stand-in) returns the remembered score, and only a bin
// change or a Reseed forces a rescore. And verdicts carry no reason text:
// Reason words one, in the batch detector's words, where it is read.
type CompactKLDStream struct {
	name         string
	opts         stats.KLOptions
	edges        []float64 // B+1 frozen bin edges (head of the float buffer)
	xnorm        []float64 // B-long normalised X baseline (tail of the float buffer)
	threshold    float64
	significance float64
	minCov       float64
	score        float64  // divergence of the current tally, valid while scored
	counts       []uint16 // live tally of window slots per bin
	bins         []uint8  // per-slot bin index (head of the byte buffer)
	bad          []uint8  // untrusted-slot bitset (tail of the byte buffer)
	pos          uint16
	filled       uint16
	nbad         uint16
	scored       bool // score matches counts: no bin change or Reseed since it was computed
}

// compactScratch pools the probability/KL buffers for the scoring hot
// path, shared across all compact streams so per-consumer state stays flat.
var compactScratch = sync.Pool{New: func() any { return &kldScratch{} }}

// maxCompactBins bounds the histogram size a uint8 bin index can address.
const maxCompactBins = 256

// NewCompactStream seeds a compact streaming evaluator with a trusted
// historic week (336 readings), typically the final training week. The
// default QualityPolicy governs ObserveStatus. The returned stream is
// independent of the detector: it copies the frozen edges, normalised X
// baseline, and threshold, so the (much larger) detector may be released
// afterwards.
func (d *KLDDetector) NewCompactStream(seedWeek timeseries.Series) (*CompactKLDStream, error) {
	return d.NewCompactStreamWithPolicy(seedWeek, QualityPolicy{})
}

// NewCompactStreamWithPolicy is NewCompactStream with an explicit quality
// policy. The zero policy selects the package defaults.
func (d *KLDDetector) NewCompactStreamWithPolicy(seedWeek timeseries.Series, policy QualityPolicy) (*CompactKLDStream, error) {
	if d.cfg.Divergence != KullbackLeibler {
		return nil, fmt.Errorf("detect: compact stream supports only the %s divergence, got %s",
			KullbackLeibler, d.cfg.Divergence)
	}
	if err := validateWeek(seedWeek); err != nil {
		return nil, err
	}
	policy = policy.withDefaults()
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	b := d.hist.Bins()
	if b > maxCompactBins {
		return nil, fmt.Errorf("detect: compact stream supports <= %d bins, got %d", maxCompactBins, b)
	}
	// Two backing allocations: one float64 buffer for edges|xnorm, one
	// byte buffer for bins|bad. Full-capacity slicing keeps appends (there
	// are none) from ever crossing the boundary.
	fbuf := make([]float64, (b+1)+b)
	bbuf := make([]uint8, timeseries.SlotsPerWeek+(timeseries.SlotsPerWeek+7)/8)
	s := &CompactKLDStream{
		name:         d.Name(),
		opts:         d.cfg.KL,
		edges:        fbuf[: b+1 : b+1],
		xnorm:        fbuf[b+1:],
		threshold:    d.threshold,
		significance: d.cfg.Significance,
		minCov:       policy.MinCoverage,
		counts:       make([]uint16, b),
		bins:         bbuf[:timeseries.SlotsPerWeek:timeseries.SlotsPerWeek],
		bad:          bbuf[timeseries.SlotsPerWeek:],
	}
	copy(s.edges, d.hist.Edges())
	copy(s.xnorm, d.xNorm)
	for i, v := range seedWeek {
		bin := stats.BinIndexEdges(s.edges, v) // validated week: never NaN
		s.bins[i] = uint8(bin)
		s.counts[bin]++
	}
	return s, nil
}

// Name identifies the underlying detector configuration (StreamDetector).
func (s *CompactKLDStream) Name() string { return s.name }

// Observe advances the stream with a trusted live reading (StreamDetector).
func (s *CompactKLDStream) Observe(v float64) (Verdict, error) {
	if err := checkStreamReading(v); err != nil {
		return Verdict{}, err
	}
	return s.observe(stats.BinIndexEdges(s.edges, v), timeseries.StatusOK)
}

// ObserveStatus advances the stream with a quality-annotated reading
// (StreamDetector). Missing/Corrupt/Imputed slots keep the trusted
// stand-in already binned into the window and count against coverage.
func (s *CompactKLDStream) ObserveStatus(v float64, status timeseries.ReadingStatus) (Verdict, error) {
	switch status {
	case timeseries.StatusOK:
		return s.Observe(v)
	case timeseries.StatusMissing, timeseries.StatusCorrupt, timeseries.StatusImputed:
		return s.observe(int(s.bins[s.pos]), status)
	default:
		return Verdict{}, fmt.Errorf("detect: unknown reading status %v", status)
	}
}

// observe writes the slot's bin, updates the tallies and coverage
// bookkeeping, and evaluates the window under the coverage gate. After 336
// observations the window holds only live data and wraps around.
func (s *CompactKLDStream) observe(bin int, status timeseries.ReadingStatus) (Verdict, error) {
	p := int(s.pos)
	if old := int(s.bins[p]); old != bin {
		s.counts[old]--
		s.counts[bin]++
		s.bins[p] = uint8(bin)
		s.scored = false
	}
	wasBad := s.badBit(p)
	isBad := status != timeseries.StatusOK
	s.setBadBit(p, isBad)
	if isBad && !wasBad {
		s.nbad++
	} else if !isBad && wasBad {
		s.nbad--
	}
	s.pos = (s.pos + 1) % timeseries.SlotsPerWeek
	if s.filled < timeseries.SlotsPerWeek {
		s.filled++
	}
	if s.Coverage() < s.minCov {
		return coverageVerdict(s.nbad), nil
	}
	return s.verdict()
}

// verdict judges the current window, scoring it only when the tally has
// changed since the last score.
func (s *CompactKLDStream) verdict() (Verdict, error) {
	if !s.scored {
		ka, err := s.divergence()
		if err != nil {
			return Verdict{}, err
		}
		s.score, s.scored = ka, true
	}
	return kldJudge(s.score, s.threshold), nil
}

// divergence scores the current tally. The probabilities are counts/336 —
// exactly Histogram.DistributionInto's arithmetic over the raw window — so
// the divergence matches the full detector bit for bit.
func (s *CompactKLDStream) divergence() (float64, error) {
	sc := compactScratch.Get().(*kldScratch)
	if cap(sc.probs) < len(s.counts) {
		sc.probs = make([]float64, len(s.counts))
	}
	probs := sc.probs[:len(s.counts)]
	n := float64(timeseries.SlotsPerWeek)
	for i, c := range s.counts {
		probs[i] = float64(c) / n
	}
	ka, err := stats.KLDivergenceToBaseline(probs, s.xnorm, s.opts, &sc.kl)
	compactScratch.Put(sc)
	return ka, err
}

// Reason words a verdict this stream returned (StreamDetector): the KLD
// detector's text for a flagged window, the coverage gate's for an
// inconclusive one, and nothing for a normal one.
func (s *CompactKLDStream) Reason(v Verdict) string {
	switch {
	case v.Inconclusive:
		return coverageReason(v.untrusted, s.minCov)
	case v.Anomalous:
		return kldReason(v.Score, v.Threshold, s.significance)
	default:
		return ""
	}
}

// Reseed swaps the trusted historic seed behind the stream — the rolling
// re-train path (StreamDetector). Slots holding trusted live readings keep
// their binned contribution: a re-train must never flip the verdict
// contribution of data the meter actually reported. Untouched seed slots
// and untrusted stand-ins are rebinned from the new seed week and coverage
// accounting resets to full.
func (s *CompactKLDStream) Reseed(seed timeseries.Series) error {
	if err := validateWeek(seed); err != nil {
		return err
	}
	s.scored = false
	for i := 0; i < timeseries.SlotsPerWeek; i++ {
		if s.live(i) && !s.badBit(i) {
			continue
		}
		bin := stats.BinIndexEdges(s.edges, seed[i])
		s.counts[s.bins[i]]--
		s.counts[bin]++
		s.bins[i] = uint8(bin)
		if s.badBit(i) {
			s.setBadBit(i, false)
			s.nbad--
		}
	}
	return nil
}

// live reports whether slot i has been written by an observation (trusted
// or stand-in) rather than still holding untouched historic seed. During
// the first lap pos == filled, so exactly the slots below pos are live;
// after the window wraps every slot is.
func (s *CompactKLDStream) live(i int) bool {
	return s.filled == timeseries.SlotsPerWeek || i < int(s.pos)
}

func (s *CompactKLDStream) badBit(i int) bool {
	return s.bad[i>>3]&(1<<(i&7)) != 0
}

func (s *CompactKLDStream) setBadBit(i int, v bool) {
	if v {
		s.bad[i>>3] |= 1 << (i & 7)
	} else {
		s.bad[i>>3] &^= 1 << (i & 7)
	}
}

// Filled returns how many live readings are currently in the window
// (StreamDetector; saturates at 336).
func (s *CompactKLDStream) Filled() int { return int(s.filled) }

// Coverage returns the trusted fraction of the window (StreamDetector).
func (s *CompactKLDStream) Coverage() float64 {
	return 1 - float64(s.nbad)/timeseries.SlotsPerWeek
}

// Threshold returns the frozen anomaly threshold the stream judges against.
func (s *CompactKLDStream) Threshold() float64 { return s.threshold }

// MemoryFootprint returns the retained bytes of this stream's state: the
// struct itself plus its backing arrays (the name string is shared with the
// detector that built the stream and not counted). The serve layer's memory
// accounting test checks this against actual allocator growth.
func (s *CompactKLDStream) MemoryFootprint() int {
	return int(unsafe.Sizeof(*s)) +
		(cap(s.edges)+cap(s.xnorm))*8 +
		cap(s.counts)*2 +
		cap(s.bins) + cap(s.bad)
}

// checkStreamReading rejects readings no streaming window may absorb: a NaN
// entering the window would poison every verdict for the next 336
// observations, an infinity would degenerate the histogram, and negative
// consumption is a protocol violation. Shared by every StreamDetector so
// rejection messages are uniform.
func checkStreamReading(v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("detect: non-finite reading NaN")
	}
	if math.IsInf(v, 0) {
		return fmt.Errorf("detect: non-finite reading %g", v)
	}
	if v < 0 {
		return fmt.Errorf("detect: negative reading %g", v)
	}
	return nil
}

// coverageVerdict is the shared below-the-gate Inconclusive verdict of
// every streaming evaluator. It records the untrusted-slot count, and
// coverageReason words it on demand.
func coverageVerdict(nbad uint16) Verdict {
	return Verdict{Inconclusive: true, untrusted: nbad}
}

// coverageReason words a coverage verdict with nbad untrusted slots. The
// coverage is recomputed with Coverage's arithmetic.
func coverageReason(nbad uint16, minCov float64) string {
	cov := 1 - float64(nbad)/timeseries.SlotsPerWeek
	return fmt.Sprintf("window coverage %.1f%% below the %.0f%% gate (%d of %d slots untrusted) — verdict inconclusive",
		100*cov, 100*minCov, nbad, timeseries.SlotsPerWeek)
}
