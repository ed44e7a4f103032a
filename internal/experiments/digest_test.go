package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// evaluationDigest hashes every cell's outcomes in table order: consumer
// ID, the three verdict flags, and the exact bits of the stolen energy and
// profit. Two evaluations with equal digests produce byte-identical tables.
func evaluationDigest(t *testing.T, ev *Evaluation) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, d := range DetectorIDs() {
		for _, s := range Scenarios() {
			cell, err := ev.Cell(d, s)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(string(d) + "/" + string(s)))
			put(uint64(len(cell.Outcomes)))
			for _, o := range cell.Outcomes {
				put(uint64(o.ConsumerID))
				put(flag(o.Detected))
				put(flag(o.FalsePositive))
				put(flag(o.Inconclusive))
				put(math.Float64bits(o.StolenKWh))
				put(math.Float64bits(o.ProfitUSD))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// evaluationDigestPinned is the digest of the quick protocol's first 12
// consumers at 8 trials. Any change to the attack loop, the RNG streams, the
// ARIMA fit or a detector's verdict arithmetic moves it; a change meant to
// be exact must leave it alone.
const evaluationDigestPinned = "9ccc3baa52c3bcbb2bfd4ef6629036be8bda14b1fb98e4584fa675ee81aba794"

func TestEvaluationDigestPinned(t *testing.T) {
	for _, par := range []int{1, 4} {
		opts := QuickOptions()
		opts.MaxConsumers = 12
		opts.Trials = 8
		opts.Parallelism = par
		ev, err := RunEvaluation(opts)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Consumers != 12 || len(ev.Quarantined) != 0 {
			t.Fatalf("parallelism %d: %d consumers evaluated, %d quarantined", par, ev.Consumers, len(ev.Quarantined))
		}
		if got := evaluationDigest(t, ev); got != evaluationDigestPinned {
			t.Errorf("parallelism %d: evaluation digest %s, want %s", par, got, evaluationDigestPinned)
		}
	}
}
