package skyline

import (
	"math/rand"
	"reflect"
	"testing"

	"crowdsky/internal/dataset"
)

// checkDynamicAgainstRebuild asserts that a mutated index is logically
// identical to a from-scratch build over the same alive set: the full
// pair-wise dominance relation, the dominating sets, the known skyline,
// and — when everything is alive — the oracle skyline.
func checkDynamicAgainstRebuild(t *testing.T, d *dataset.Dataset, ix *Index, alive []bool) {
	t.Helper()
	n := d.N()
	want := NewIndexAlive(d, alive)
	for s := 0; s < n; s++ {
		for tt := 0; tt < n; tt++ {
			if got, exp := ix.Dominates(s, tt), want.Dominates(s, tt); got != exp {
				t.Fatalf("Dominates(%d,%d) = %v after mutations, rebuild says %v", s, tt, got, exp)
			}
		}
	}
	if got, exp := ix.DominatingSets(), want.DominatingSets(); !reflect.DeepEqual(got, exp) {
		t.Fatalf("DominatingSets diverged from rebuild\n got %v\nwant %v", got, exp)
	}
	checkForEachDominated(t, ix, n)
	if got, exp := ix.KnownSkyline(), want.KnownSkyline(); !sameMembers(got, exp) {
		t.Fatalf("KnownSkyline diverged from rebuild: got %v, want %v", got, exp)
	}
	if got, exp := ix.ImmediateDominators(), want.ImmediateDominators(); !reflect.DeepEqual(got, exp) {
		t.Fatalf("ImmediateDominators diverged from rebuild")
	}
	aliveCount := 0
	for tt := 0; tt < n; tt++ {
		if alive == nil || alive[tt] {
			aliveCount++
		}
		if got := ix.Alive(tt); got != (alive == nil || alive[tt]) {
			t.Fatalf("Alive(%d) = %v, want %v", tt, got, !got)
		}
	}
	if ix.N() != aliveCount {
		t.Fatalf("N() = %d after mutations, want %d", ix.N(), aliveCount)
	}
	if allAlive := aliveCount == n; allAlive {
		if !ix.Matches(d) {
			t.Fatalf("Matches(d) = false with every tuple alive")
		}
		if got, exp := ix.OracleSkyline(), OracleSkyline(d); !reflect.DeepEqual(got, exp) {
			t.Fatalf("OracleSkyline diverged after mutation round-trip: got %v, want %v", got, exp)
		}
	} else if ix.Matches(d) {
		t.Fatalf("Matches(d) = true with %d tuples dead", n-aliveCount)
	}
}

// TestIncrementalDifferential interleaves random Add/Remove sequences
// with full rebuild comparisons across the dataset zoo.
func TestIncrementalDifferential(t *testing.T) {
	for name, d := range indexDatasets(t) {
		d := d
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			n := d.N()
			rng := rand.New(rand.NewSource(int64(len(name))*977 + 5))
			ix := NewIndex(d)
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = true
			}
			steps := 6 * n
			if steps > 400 {
				steps = 400
			}
			for step := 0; step < steps; step++ {
				tt := rng.Intn(n)
				if alive[tt] {
					if !ix.Remove(tt) {
						t.Fatalf("Remove(%d) reported no change for an alive tuple", tt)
					}
				} else {
					if !ix.Add(tt) {
						t.Fatalf("Add(%d) reported no change for a dead tuple", tt)
					}
				}
				alive[tt] = !alive[tt]
				if step%37 == 17 {
					checkDynamicAgainstRebuild(t, d, ix, alive)
				}
			}
			checkDynamicAgainstRebuild(t, d, ix, alive)
			// Resurrect everything: the index must land exactly where a
			// fresh unrestricted build does, oracle included.
			for tt := 0; tt < n; tt++ {
				if !alive[tt] {
					ix.Add(tt)
					alive[tt] = true
				}
			}
			checkDynamicAgainstRebuild(t, d, ix, alive)
		})
	}
}

// TestIncrementalFromRestricted mutates an index that was built with an
// alive restriction: the first mutation must transparently adopt the
// full-dataset layout while preserving the restricted dominance state.
func TestIncrementalFromRestricted(t *testing.T) {
	d := randData(61, 180, 3, 2, dataset.AntiCorrelated)
	n := d.N()
	rng := rand.New(rand.NewSource(61))
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = rng.Intn(3) != 0
	}
	ix := NewIndexAlive(d, alive)
	// First mutation converts; do a removal of an alive tuple.
	first := -1
	for tt := 0; tt < n; tt++ {
		if alive[tt] {
			first = tt
			break
		}
	}
	ix.Remove(first)
	alive[first] = false
	checkDynamicAgainstRebuild(t, d, ix, alive)
	for tt := 0; tt < n; tt++ {
		if !alive[tt] {
			ix.Add(tt)
			alive[tt] = true
		}
	}
	checkDynamicAgainstRebuild(t, d, ix, alive)
}

// TestGenerationCounter pins the mutation-visibility contract: the
// generation moves exactly on state changes, no-ops don't bump it, and
// the DominatingSets memo keys off it.
func TestGenerationCounter(t *testing.T) {
	d := randData(62, 60, 3, 1, dataset.Independent)
	ix := NewIndex(d)
	if ix.Generation() != 0 {
		t.Fatalf("fresh index generation = %d, want 0", ix.Generation())
	}
	before := ix.DominatingSets()
	if !ix.Remove(3) || ix.Generation() != 1 {
		t.Fatalf("Remove did not bump generation (gen=%d)", ix.Generation())
	}
	if ix.Remove(3) || ix.Generation() != 1 {
		t.Fatalf("no-op Remove bumped generation (gen=%d)", ix.Generation())
	}
	after := ix.DominatingSets()
	if reflect.DeepEqual(before, after) && len(before[3]) > 0 {
		t.Fatalf("DominatingSets memo not invalidated by Remove")
	}
	if after[3] != nil {
		t.Fatalf("dead tuple kept a dominating set: %v", after[3])
	}
	if !ix.Add(3) || ix.Generation() != 2 {
		t.Fatalf("Add did not bump generation (gen=%d)", ix.Generation())
	}
	if ix.Add(3) || ix.Generation() != 2 {
		t.Fatalf("no-op Add bumped generation (gen=%d)", ix.Generation())
	}
	restored := ix.DominatingSets()
	if !reflect.DeepEqual(restored, before) {
		t.Fatalf("Remove+Add round trip changed DominatingSets")
	}
	if !ix.Matches(d) {
		t.Fatalf("Matches(d) = false after round trip")
	}
}

// FuzzIncrementalIndex drives random interleaved Add/Remove/query
// sequences from fuzzed bytes: every checkpoint must match a from-scratch
// NewIndexAlive rebuild exactly (bitmaps, dominating sets, KnownSkyline,
// and OracleSkyline once everything is alive again).
func FuzzIncrementalIndex(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 2, 1})
	f.Add(int64(2), []byte{9, 9, 9, 0, 4, 7, 4, 7})
	f.Add(int64(3), []byte{5, 17, 3, 3, 11, 2, 8, 13, 1, 0})
	f.Add(int64(6), []byte{1, 0, 1, 0, 1, 0})
	f.Add(int64(9), []byte{20, 6, 14, 6, 20, 5, 0, 19})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		seed &= 1<<62 - 1 // shape arithmetic needs a non-negative seed
		n := int(seed%21)*3 + 4
		dk := int(seed%4) + 1
		dc := int(seed % 3)
		d := randData(seed, n, dk, dc, dataset.Distribution(seed%3))
		if seed%2 == 0 {
			d = withDuplicates(t, d, seed)
		}
		ix := NewIndex(d)
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		for i, b := range ops {
			tt := int(b) % n
			changed := false
			if alive[tt] {
				changed = ix.Remove(tt)
			} else {
				changed = ix.Add(tt)
			}
			if !changed {
				t.Fatalf("op %d: mutation of tuple %d reported no change", i, tt)
			}
			alive[tt] = !alive[tt]
			if i%5 == 4 {
				checkDynamicAgainstRebuild(t, d, ix, alive)
			}
		}
		checkDynamicAgainstRebuild(t, d, ix, alive)
		for tt := 0; tt < n; tt++ {
			if !alive[tt] {
				ix.Add(tt)
				alive[tt] = true
			}
		}
		checkDynamicAgainstRebuild(t, d, ix, alive)
	})
}
