package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// ExampleKLDivergence computes Eq. 12 of the paper for two simple
// distributions.
func ExampleKLDivergence() {
	// A fair coin against a biased one, in bits (log2).
	fair := []float64{0.5, 0.5}
	biased := []float64{0.9, 0.1}
	d, err := stats.KLDivergence(fair, biased, stats.KLOptions{Base: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("D(fair || biased) = %.4f bits\n", d)
	// Output:
	// D(fair || biased) = 0.7370 bits
}

// ExampleHistogram shows the frozen-edge histogram workflow behind the KLD
// detector: edges come from the full training sample and are reused to bin
// any candidate week.
func ExampleHistogram() {
	training := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	lo, hi := stats.MinMax(training)
	h, err := stats.NewHistogram(stats.LinearEdges(lo, hi, 5))
	if err != nil {
		panic(err)
	}
	for _, x := range training {
		h.AddBin(h.BinIndex(x))
	}
	candidate := []float64{0.5, 0.7, 8.5}
	fmt.Println("baseline:", h.Probabilities())
	fmt.Println("candidate:", h.Distribution(candidate))
	// Output:
	// baseline: [0.2 0.2 0.2 0.2 0.2]
	// candidate: [0.6666666666666666 0 0 0 0.3333333333333333]
}

// ExampleTruncNormal draws the paper's Integrated-ARIMA-attack readings:
// normal noise confined to a confidence band.
func ExampleTruncNormal() {
	tn, err := stats.NewTruncNormal(2.0, 0.5, 1.0, 3.0)
	if err != nil {
		panic(err)
	}
	rng := stats.NewRand(1)
	x := tn.Sample(rng)
	fmt.Printf("sample in [1, 3]: %v\n", x >= 1 && x <= 3)
	// Output:
	// sample in [1, 3]: true
}
