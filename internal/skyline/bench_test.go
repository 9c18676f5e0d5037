package skyline

import (
	"fmt"
	"testing"

	"crowdsky/internal/dataset"
)

// Micro-benchmarks for the machine substrate: the AK skyline across
// distributions, the index build and its derivations, and the oracle.

func benchData(b *testing.B, n, dk int, dist dataset.Distribution) *dataset.Dataset {
	b.Helper()
	return randData(1, n, dk, 0, dist)
}

func BenchmarkKnownSkyline(b *testing.B) {
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
		d := benchData(b, 2000, 4, dist)
		b.Run(dist.String(), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				size = len(KnownSkyline(d))
			}
			b.ReportMetric(float64(size), "skyline_size")
		})
	}
}

// SetMaxWorkers caps the number of workers the sharded kernels and the
// parallel index build use (0 restores the runtime.NumCPU() default) and
// returns the previous cap. Every kernel writes disjoint output slots, so
// the result is bit-for-bit identical for every worker count; the
// worker-count benchmarks and the differential tests that prove that
// invariant set it between builds only.
func SetMaxWorkers(n int) (prev int) {
	prev = maxWorkers
	maxWorkers = n
	return prev
}

// BenchmarkIndexBuild isolates the one-time cost of the columnar engine:
// layout, sort, tiled bitmap kernel, and transpose. Each size runs at
// several worker counts; workers=1 is the serial kernel, and
// serial÷parallel at equal n is the speedup.
func BenchmarkIndexBuild(b *testing.B) {
	for _, n := range []int{1000, 4000, 10000} {
		d := benchData(b, n, 4, dataset.Independent)
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				defer SetMaxWorkers(SetMaxWorkers(w))
				b.ReportAllocs()
				var pairs int
				for i := 0; i < b.N; i++ {
					pairs = NewIndex(d).Stats().Pairs
				}
				b.ReportMetric(float64(pairs), "pairs")
			})
		}
	}
}

// BenchmarkIndexAdd measures resurrecting one tuple into a warm dynamic
// index. The paired Remove that makes the Add legal runs with the timer
// stopped, so ns/op is the Add alone.
func BenchmarkIndexAdd(b *testing.B) {
	d := benchData(b, 4000, 4, dataset.Independent)
	ix := NewIndex(d)
	ix.Remove(0)
	ix.Add(0) // convert + warm before the clock starts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := i % d.N()
		ix.Remove(t)
		b.StartTimer()
		ix.Add(t)
	}
}

// BenchmarkIndexRemove mirrors BenchmarkIndexAdd with the roles swapped.
func BenchmarkIndexRemove(b *testing.B) {
	d := benchData(b, 4000, 4, dataset.Independent)
	ix := NewIndex(d)
	ix.Remove(0)
	ix.Add(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := i % d.N()
		b.StartTimer()
		ix.Remove(t)
		b.StopTimer()
		ix.Add(t)
		b.StartTimer()
	}
}

// The derivation benchmarks include the index build in every iteration,
// which is what a run pays for its first derivation.

func BenchmarkDominatingSets(b *testing.B) {
	d := benchData(b, 4000, 4, dataset.Independent)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewIndex(d).DominatingSets()
	}
}

func BenchmarkImmediateDominators(b *testing.B) {
	d := benchData(b, 4000, 4, dataset.Independent)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewIndex(d).ImmediateDominators()
	}
}

// BenchmarkOracleSkyline compares the sharded scan oracle with the
// bitmap-backed readout (index build included).
func BenchmarkOracleSkyline(b *testing.B) {
	d := randData(1, 4000, 4, 2, dataset.Independent)
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			OracleSkyline(d)
		}
	})
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewIndex(d).OracleSkyline()
		}
	})
}

func BenchmarkLayers(b *testing.B) {
	d := benchData(b, 1000, 4, dataset.AntiCorrelated)
	var count int
	for i := 0; i < b.N; i++ {
		count = len(Layers(d))
	}
	b.ReportMetric(float64(count), "layers")
}

func BenchmarkFreqCounter(b *testing.B) {
	d := benchData(b, 2000, 4, dataset.Independent)
	fc := NewIndex(d).FreqCounter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Freq(i%d.N(), (i*31+7)%d.N())
	}
}
