package stats

import "math/rand"

// NewRand returns a deterministic *rand.Rand seeded with the given seed.
// All stochastic code in this repository threads RNGs created here so that
// every experiment, test, and benchmark is reproducible from its seed. The
// stream is exactly rand.New(rand.NewSource(seed))'s; the package's own
// source only makes Seed cheaper, which hot loops that reseed one
// generator per stream rely on.
func NewRand(seed int64) *rand.Rand {
	return rand.New(newSource(seed))
}

// SplitRand derives an independent child RNG from a parent seed and a
// stream index. Experiments that fan out per-consumer work use one stream
// per consumer so that changing the trial count for one consumer never
// perturbs another consumer's draws.
func SplitRand(seed int64, stream int64) *rand.Rand {
	return rand.New(newSource(SplitSeed(seed, stream)))
}

// SplitSeed is the source seed SplitRand(seed, stream) starts from. A hot
// loop that walks many streams reseeds one generator with
// r.Seed(SplitSeed(seed, stream)) and draws exactly SplitRand's stream,
// without allocating a fresh ~5 KB source per stream.
func SplitSeed(seed int64, stream int64) int64 {
	// SplitMix64-style mixing keeps nearby (seed, stream) pairs decorrelated.
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
