package skyline

import (
	"math/rand"
	"testing"

	"crowdsky/internal/dataset"
)

// TestZeroAlloc is the CI gate for the dominance query kernels: once an
// index (or frequency counter) is built, point queries must not allocate.
// Dominates is two array loads and a bit test; Freq is one AND-popcount
// pass over pre-built rows; ForEachDominated walks one pre-built row. A
// regression here means a query started materializing state that belongs
// in the build phase.
func TestZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := dataset.MustGenerate(dataset.GenerateConfig{
		N: 256, KnownDims: 4, CrowdDims: 2, Distribution: dataset.Independent,
	}, rng)
	ix := NewIndex(d)
	fc := NewFreqCounter(d, DominatingSets(d))
	visited := 0
	query := func() {
		for s := 0; s < 16; s++ {
			for u := 0; u < 16; u++ {
				_ = ix.Dominates(s, u)
				_ = fc.Freq(s, u)
			}
			ix.ForEachDominated(s, func(int) { visited++ })
		}
	}
	if avg := testing.AllocsPerRun(100, query); avg != 0 {
		t.Fatalf("index query allocated %.2f times per run; want 0", avg)
	}
}

// TestZeroAllocIncremental gates the incremental kernels: once the index
// has gone dynamic (the first mutation converts the layout and installs
// the pooled scratch rows), a Remove/Add cycle must not allocate — the
// compare sweep writes into the reused scratch sets and every bitmap bit
// it touches lives in rows carved at conversion time.
func TestZeroAllocIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := dataset.MustGenerate(dataset.GenerateConfig{
		N: 512, KnownDims: 4, CrowdDims: 0, Distribution: dataset.AntiCorrelated,
	}, rng)
	ix := NewIndex(d)
	ix.Remove(7) // convert to the dynamic layout once
	ix.Add(7)
	step := func() {
		for t2 := 100; t2 < 108; t2++ {
			ix.Remove(t2)
		}
		for t2 := 100; t2 < 108; t2++ {
			ix.Add(t2)
		}
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("incremental update allocated %.2f times per run; want 0", avg)
	}
}
