package prefgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkAddPreferChain grows a worst-case chain (every insertion
// extends the longest path, maximizing closure propagation).
func BenchmarkAddPreferChain(b *testing.B) {
	const n = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddPrefer(v-1, v)
		}
	}
}

// BenchmarkAddPreferPropagation scales the chain shape across sizes so
// the closure-propagation trajectory (quadratic in the chain length) is
// visible in BENCH_*.json diffs.
func BenchmarkAddPreferPropagation(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New(n)
				for v := 1; v < n; v++ {
					g.AddPrefer(v-1, v)
				}
			}
		})
	}
}

// BenchmarkAddEqualMerge folds n tuples into one equivalence class,
// exercising the union-find merge and reach-set union path.
func BenchmarkAddEqualMerge(b *testing.B) {
	const n = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEqual(0, v)
		}
	}
}

// BenchmarkAddPreferRandom inserts random edges, the typical CrowdSky
// answer stream shape.
func BenchmarkAddPreferRandom(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		g := New(n)
		for k := 0; k < 3*n; k++ {
			g.AddPrefer(rng.Intn(n), rng.Intn(n))
		}
	}
}

// BenchmarkKnownQuery measures the reachability lookup the pruning methods
// hammer.
func BenchmarkKnownQuery(b *testing.B) {
	const n = 2000
	g := New(n)
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 3*n; k++ {
		g.AddPrefer(rng.Intn(n), rng.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Known(i%n, (i*31+7)%n)
	}
}

// BenchmarkFoldNoisyStream folds a seeded answer stream shaped like a
// serial CrowdSky run under a noisy crowd: random pairs oriented by a
// hidden total order, about 5% of them flipped and 2.5% answered Equal.
// Unlike the chain and random benchmarks, most answers here land on rows
// that already hold part of the closure, and contradictions and merges
// are frequent.
func BenchmarkFoldNoisyStream(b *testing.B) {
	const n = 4000
	type answer struct {
		s, t  int
		equal bool
	}
	rng := rand.New(rand.NewSource(3))
	rank := rng.Perm(n)
	stream := make([]answer, 3*n)
	for k := range stream {
		s, t := rng.Intn(n), rng.Intn(n)
		if rank[s] > rank[t] {
			s, t = t, s
		}
		switch r := rng.Float64(); {
		case r < 0.025:
			stream[k] = answer{s: s, t: t, equal: true}
		case r < 0.075:
			stream[k] = answer{s: t, t: s}
		default:
			stream[k] = answer{s: s, t: t}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(n)
		for _, a := range stream {
			if a.equal {
				g.AddEqual(a.s, a.t)
			} else {
				g.AddPrefer(a.s, a.t)
			}
		}
	}
}
