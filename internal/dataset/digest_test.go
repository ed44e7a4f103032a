package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// digest is the SHA-256 of a dataset's exact bits: the week count, then per
// consumer its ID, class, length and every demand value's float64 bits,
// little-endian.
func digest(ds *Dataset) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(ds.Weeks))
	for _, c := range ds.Consumers {
		put(uint64(c.ID))
		put(uint64(c.Class))
		put(uint64(len(c.Demand)))
		for _, v := range c.Demand {
			put(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// fleetConfig is shaped like the benchmark fleets: residential meters
// only, eight training weeks plus two live weeks.
func fleetConfig() Config {
	return Config{Residential: 1000, Weeks: 10, VacationRate: 0.005, PartyRate: 0.004, Seed: 3}
}

// TestGenerateDigestsPinned pins the generator's output bit for bit. The
// digests were taken from the per-slot, single-goroutine generator that
// preceded the weekly profile table and the worker pool; any change to them
// changes every table the repository reproduces.
func TestGenerateDigestsPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"paper", PaperConfig(), "74f302c0d09a61cc99527541b8a917d0c1a31b5fe8c034d9c1781ed7557b93ae"},
		{"fleet", fleetConfig(), "6ae4dd22e8541dc9dfefe6133705f55b19f4ae6ef6327e69f6e686892be23338"},
		{"small", SmallConfig(), "5775637d9331fdf9581bac44bb370a29806501c538877492c042a2f15a8316b2"},
	}
	for _, tc := range cases {
		ds, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := digest(ds); got != tc.want {
			t.Errorf("%s digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestGenerateWorkerCountInvariant: the worker pool never changes the
// output.
func TestGenerateWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var digests []string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ds, err := Generate(fleetConfig())
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, digest(ds))
	}
	if digests[0] != digests[1] {
		t.Errorf("GOMAXPROCS 1 digest %s != GOMAXPROCS 4 digest %s", digests[0], digests[1])
	}
}
