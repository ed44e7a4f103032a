package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sourceTestSeeds covers the edges of math/rand's seed reduction (zero,
// the modulus and its neighbours, both signs, the int64 extremes) plus a
// spread of SplitSeed-mixed seeds like the ones the evaluation reseeds.
func sourceTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		int32max, -int32max, int32max - 1, int32max + 1, -(int32max + 1),
		1 << 31, -(1 << 31), 2 * int32max, -2 * int32max,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for i := int64(0); len(seeds) < 2000; i++ {
		seeds = append(seeds, SplitSeed(2016, i), -i*7919)
	}
	return seeds
}

// TestSourceMatchesMathRand pins the package source to math/rand's: for
// every seed, 2000 draws through Uint64 and Int63 are identical, whether
// the source was built for the seed or reseeded from an earlier one.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	reused := newSource(42)
	for _, seed := range sourceTestSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		reused.Seed(seed)
		for i := 0; i < draws; i++ {
			w := want.Uint64()
			if g := got.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, g, w)
			}
			if r := reused.Uint64(); r != w {
				t.Fatalf("seed %d draw %d: reseeded Uint64 %d, want %d", seed, i, r, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 %d, want %d", seed, g, w)
		}
	}
}

// TestNewRandMatchesMathRand checks the derived draws the repository
// actually uses (floats, normals, bounded ints, shuffles) through the
// *rand.Rand wrappers, including Rand.Seed on a reused generator.
func TestNewRandMatchesMathRand(t *testing.T) {
	reused := NewRand(7)
	for _, seed := range sourceTestSeeds()[:200] {
		want := rand.New(rand.NewSource(seed))
		got := NewRand(seed)
		reused.Seed(seed)
		for i := 0; i < 200; i++ {
			w := [4]float64{want.Float64(), want.NormFloat64(), want.ExpFloat64(), float64(want.Intn(1000))}
			g := [4]float64{got.Float64(), got.NormFloat64(), got.ExpFloat64(), float64(got.Intn(1000))}
			r := [4]float64{reused.Float64(), reused.NormFloat64(), reused.ExpFloat64(), float64(reused.Intn(1000))}
			if g != w || r != w {
				t.Fatalf("seed %d draw %d: got %v, reseeded %v, want %v", seed, i, g, r, w)
			}
		}
		if g, w := got.Perm(20), want.Perm(20); !equalInts(g, w) {
			t.Fatalf("seed %d: Perm %v, want %v", seed, g, w)
		}
	}
	split := SplitRand(2016, 3)
	want := rand.New(rand.NewSource(SplitSeed(2016, 3)))
	for i := 0; i < 100; i++ {
		if g, w := split.Int63(), want.Int63(); g != w {
			t.Fatalf("SplitRand draw %d: %d, want %d", i, g, w)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkSourceSeed(b *testing.B) {
	s := newSource(1)
	for i := 0; i < b.N; i++ {
		s.Seed(SplitSeed(2016, int64(i)))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	s := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		s.Seed(SplitSeed(2016, int64(i)))
	}
}
