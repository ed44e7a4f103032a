package arima

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestDifference(t *testing.T) {
	y := []float64{1, 3, 6, 10}
	d1, err := Difference(y, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if d1[i] != want[i] {
			t.Errorf("d1[%d] = %g, want %g", i, d1[i], want[i])
		}
	}
	d2, err := Difference(y, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2) != 2 || d2[0] != 1 || d2[1] != 1 {
		t.Errorf("d2 = %v, want [1 1]", d2)
	}
	d0, err := Difference(y, 0)
	if err != nil {
		t.Fatal(err)
	}
	d0[0] = 99
	if y[0] != 1 {
		t.Error("Difference(_, 0) must return a copy")
	}
}

func TestDifferenceErrors(t *testing.T) {
	if _, err := Difference([]float64{1, 2}, -1); err == nil {
		t.Error("negative d should error")
	}
	if _, err := Difference([]float64{1, 2}, 2); err == nil {
		t.Error("series too short should error")
	}
}

func TestIntegrateRoundTrip(t *testing.T) {
	rng := stats.NewRand(5)
	for d := 0; d <= 2; d++ {
		y := make([]float64, 50)
		for i := range y {
			y[i] = 10 + 3*rng.NormFloat64()
		}
		diffed, err := Difference(y, d)
		if err != nil {
			t.Fatal(err)
		}
		// Split: treat first part as history, rest as "future" to rebuild.
		histLen := 20
		tail := y[:histLen]
		future := diffed[histLen-d:]
		rebuilt, err := Integrate(future, tail, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		for i, v := range rebuilt {
			if math.Abs(v-y[histLen+i]) > 1e-9 {
				t.Fatalf("d=%d: rebuilt[%d] = %g, want %g", d, i, v, y[histLen+i])
			}
		}
	}
}

func TestIntegrateErrors(t *testing.T) {
	if _, err := Integrate([]float64{1}, nil, 1); err == nil {
		t.Error("missing tail should error")
	}
	if _, err := Integrate([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("negative d should error")
	}
}

func TestDifferenceIntegratePropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.SplitRand(seed, 10)
		d := rng.Intn(3)
		n := d + 10 + rng.Intn(40)
		y := make([]float64, n)
		for i := range y {
			y[i] = 5 * rng.NormFloat64()
		}
		diffed, err := Difference(y, d)
		if err != nil {
			return false
		}
		cut := d + 3
		rebuilt, err := Integrate(diffed[cut-d:], y[:cut], d)
		if err != nil {
			return false
		}
		for i, v := range rebuilt {
			if math.Abs(v-y[cut+i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
