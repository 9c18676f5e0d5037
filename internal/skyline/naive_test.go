package skyline

import (
	"sort"

	"crowdsky/internal/dataset"
)

// This file holds the naive row-scan constructions the Index is checked
// against. Each re-runs DominatesKnown per pair, straight from its
// definition, and shares no code with the bitmap engine, which makes it
// an independent differential baseline.

// bnl computes SKY_AK(R) with the block-nested-loops algorithm of
// Börzsönyi et al.: maintain a window of incomparable candidates; each
// incoming tuple is dropped if dominated, replaces any window tuples it
// dominates, and joins the window otherwise. Returns tuple indices in
// ascending order.
func bnl(d *dataset.Dataset) []int {
	var window []int
	for t := 0; t < d.N(); t++ {
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if dominated {
				keep = append(keep, w)
				continue
			}
			switch {
			case DominatesKnown(d, w, t):
				dominated = true
				keep = append(keep, w)
			case DominatesKnown(d, t, w):
				// w is evicted.
			default:
				keep = append(keep, w)
			}
		}
		window = keep
		if !dominated {
			window = append(window, t)
		}
	}
	sort.Ints(window)
	return window
}

// dominatingSets computes DS(t) = {s : s ≺AK t} for every tuple
// (Definition 5), dominators in ascending index order; tuples in
// SKY_AK(R) get nil sets.
func dominatingSets(d *dataset.Dataset) [][]int {
	n := d.N()
	sets := make([][]int, n)
	for t := 0; t < n; t++ {
		for s := 0; s < n; s++ {
			if s != t && DominatesKnown(d, s, t) {
				sets[t] = append(sets[t], s)
			}
		}
	}
	return sets
}

// immediateDominators computes c(t) = {s ∈ DS(t) : ¬∃x ∈ DS(t) with
// s ≺AK x} for every tuple by rescanning DS(t) per member. sets must be
// the result of dominatingSets on the same dataset.
func immediateDominators(d *dataset.Dataset, sets [][]int) [][]int {
	n := d.N()
	im := make([][]int, n)
	for t := 0; t < n; t++ {
		ds := sets[t]
		for _, s := range ds {
			immediate := true
			for _, x := range ds {
				if x != s && DominatesKnown(d, s, x) {
					immediate = false
					break
				}
			}
			if immediate {
				im[t] = append(im[t], s)
			}
		}
	}
	return im
}

// naiveFreq returns freq(u,v) = |{x : u ≺AK x ∧ v ≺AK x}| for every pair,
// counted over the dominating sets: x is co-dominated once per pair of
// its dominators.
func naiveFreq(n int, sets [][]int) [][]int {
	freq := make([][]int, n)
	for u := range freq {
		freq[u] = make([]int, n)
	}
	for _, ds := range sets {
		for _, u := range ds {
			for _, v := range ds {
				freq[u][v]++
			}
		}
	}
	return freq
}
