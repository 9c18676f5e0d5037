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

// BenchmarkIndexBuild isolates the one-time cost of the columnar engine:
// layout, sort, tiled bitmap kernel, and transpose.
func BenchmarkIndexBuild(b *testing.B) {
	for _, n := range []int{1000, 4000, 10000} {
		d := benchData(b, n, 4, dataset.Independent)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var pairs int
			for i := 0; i < b.N; i++ {
				pairs = NewIndex(d).Stats().Pairs
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
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
