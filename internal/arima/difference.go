package arima

import "fmt"

// Difference applies the differencing operator (1-B)^d to the series,
// returning a series shorter by d. d = 0 returns a copy.
func Difference(y []float64, d int) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("arima: negative differencing order %d", d)
	}
	if len(y) <= d {
		return nil, fmt.Errorf("arima: series of length %d cannot be differenced %d times", len(y), d)
	}
	cur := make([]float64, len(y))
	copy(cur, y)
	for i := 0; i < d; i++ {
		next := make([]float64, len(cur)-1)
		for j := 1; j < len(cur); j++ {
			next[j-1] = cur[j] - cur[j-1]
		}
		cur = next
	}
	return cur, nil
}

// Integrate inverts Difference: given the d last values of the original
// series (tail, oldest first) and a differenced continuation, it rebuilds
// the original-scale continuation. It is the forecasting-time inverse used
// to map differenced-scale forecasts back to demand readings.
func Integrate(diffed []float64, tail []float64, d int) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("arima: negative differencing order %d", d)
	}
	if len(tail) < d {
		return nil, fmt.Errorf("arima: need %d tail values to integrate, got %d", d, len(tail))
	}
	cur := make([]float64, len(diffed))
	copy(cur, diffed)
	// Undo one level of differencing at a time, innermost first. For level
	// k we need the last value of the (k-1)-times-differenced original
	// series, which we recompute from the tail.
	for level := d; level >= 1; level-- {
		// lastVal is the final value of the original series differenced
		// (level-1) times, computed over the supplied tail.
		base, err := Difference(tail, level-1)
		if err != nil {
			return nil, fmt.Errorf("arima: integrating level %d: %w", level, err)
		}
		last := base[len(base)-1]
		for i := range cur {
			last += cur[i]
			cur[i] = last
		}
	}
	return cur, nil
}
