package skyline

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crowdsky/internal/dataset"
)

// naiveTranspose64 is the obvious three-line bit transpose the fast one
// must match.
func naiveTranspose64(in [64]uint64) [64]uint64 {
	var out [64]uint64
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if in[j]&(1<<uint(i)) != 0 {
				out[i] |= 1 << uint(j)
			}
		}
	}
	return out
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][64]uint64{{}, {1}, {0: 1 << 63}, {63: 1}}
	var diag, dense [64]uint64
	for i := range diag {
		diag[i] = 1 << uint(i)
		dense[i] = ^uint64(0)
	}
	cases = append(cases, diag, dense)
	for c := 0; c < 32; c++ {
		var m [64]uint64
		for i := range m {
			m[i] = rng.Uint64()
		}
		cases = append(cases, m)
	}
	for ci, in := range cases {
		got := in
		transpose64(&got)
		if want := naiveTranspose64(in); got != want {
			t.Fatalf("case %d: transpose64 disagrees with naive transpose", ci)
		}
		back := got
		transpose64(&back)
		if back != in {
			t.Fatalf("case %d: transpose64 is not an involution", ci)
		}
	}
}

// withDuplicates returns a copy of d where some rows are exact duplicates
// and some share an attribute sum without being equal, exercising the
// equal-score-run handling of the index.
func withDuplicates(t *testing.T, d *dataset.Dataset, seed int64) *dataset.Dataset {
	t.Helper()
	n := d.N()
	rng := rand.New(rand.NewSource(seed))
	known := make([][]float64, n)
	latent := make([][]float64, n)
	for i := 0; i < n; i++ {
		known[i] = append([]float64(nil), d.KnownRow(i)...)
		latent[i] = make([]float64, d.CrowdDims())
		for j := range latent[i] {
			latent[i][j] = d.Latent(i, j)
		}
	}
	for k := 0; k < n/4; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		copy(known[i], known[j]) // exact AK duplicate, distinct AC
	}
	for k := 0; k < n/4 && d.KnownDims() >= 2; k++ {
		// Same sum, different tuple: swap two attributes of a copied row.
		i, j := rng.Intn(n), rng.Intn(n)
		copy(known[i], known[j])
		known[i][0], known[i][1] = known[i][1], known[i][0]
	}
	return dataset.MustNew(known, latent)
}

func indexDatasets(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	out := map[string]*dataset.Dataset{
		"IND":        randData(11, 300, 4, 2, dataset.Independent),
		"ANT":        randData(12, 300, 4, 2, dataset.AntiCorrelated),
		"COR":        randData(13, 300, 4, 2, dataset.Correlated),
		"IND-1d":     randData(14, 120, 1, 1, dataset.Independent),
		"ANT-wide":   randData(15, 150, 6, 3, dataset.AntiCorrelated),
		"no-crowd":   randData(16, 200, 3, 0, dataset.Independent),
		"tiny":       randData(17, 2, 2, 1, dataset.Independent),
		"singleton":  randData(18, 1, 3, 1, dataset.Independent),
		"duplicates": nil,
	}
	out["duplicates"] = withDuplicates(t, randData(19, 240, 3, 2, dataset.Independent), 19)
	return out
}

// checkIndexAgainstNaive asserts every Index derivation is bit-for-bit
// the naive construction's result, including nil-versus-empty and
// ordering.
func checkIndexAgainstNaive(t *testing.T, d *dataset.Dataset) {
	t.Helper()
	ix := NewIndex(d)

	wantSets := DominatingSets(d)
	gotSets := ix.DominatingSets()
	if !reflect.DeepEqual(gotSets, wantSets) {
		t.Fatalf("DominatingSets: index disagrees with naive\n got %v\nwant %v", gotSets, wantSets)
	}
	for tt, s := range wantSets {
		if (s == nil) != (gotSets[tt] == nil) {
			t.Fatalf("DominatingSets: nil-ness mismatch at tuple %d", tt)
		}
	}
	if &gotSets[0] != &ix.DominatingSets()[0] {
		t.Fatalf("DominatingSets not memoized")
	}

	wantIm := ImmediateDominators(d, wantSets)
	if gotIm := ix.ImmediateDominators(); !reflect.DeepEqual(gotIm, wantIm) {
		t.Fatalf("ImmediateDominators: index disagrees with naive\n got %v\nwant %v", gotIm, wantIm)
	}

	wantFC := NewFreqCounter(d, wantSets)
	gotFC := ix.FreqCounter()
	n := d.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := gotFC.Freq(u, v), wantFC.Freq(u, v); got != want {
				t.Fatalf("Freq(%d,%d) = %d, naive %d", u, v, got, want)
			}
		}
	}

	if got, want := ix.OracleSkyline(), OracleSkyline(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("OracleSkyline: index %v, naive %v", got, want)
	}
	if got, want := ix.KnownSkyline(), KnownSkyline(d); !sameMembers(got, want) {
		t.Fatalf("KnownSkyline: index %v, naive %v", got, want)
	}
	for s := 0; s < n; s++ {
		for tt := 0; tt < n; tt++ {
			if got, want := ix.Dominates(s, tt), s != tt && DominatesKnown(d, s, tt); got != want {
				t.Fatalf("Dominates(%d,%d) = %v, DominatesKnown %v", s, tt, got, want)
			}
		}
	}

	st := ix.Stats()
	pairs := 0
	for _, s := range wantSets {
		pairs += len(s)
	}
	if st.Pairs != pairs || st.N != n || st.Dims != d.KnownDims() || st.BitmapBytes <= 0 {
		t.Fatalf("Stats %+v inconsistent (want pairs %d, n %d)", st, pairs, n)
	}
	if !ix.Matches(d) || ix.Matches(randData(99, 4, 2, 0, dataset.Independent)) {
		t.Fatalf("Matches wrong")
	}
}

func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}

func TestIndexMatchesNaive(t *testing.T) {
	for name, d := range indexDatasets(t) {
		d := d
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkIndexAgainstNaive(t, d)
		})
	}
}

func TestIndexAliveMatchesNaive(t *testing.T) {
	d := randData(31, 250, 4, 2, dataset.Independent)
	n := d.N()
	rng := rand.New(rand.NewSource(31))
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = rng.Intn(4) != 0
	}
	ix := NewIndexAlive(d, alive)

	wantSets := make([][]int, n)
	for tt := 0; tt < n; tt++ {
		if !alive[tt] {
			continue
		}
		for s := 0; s < n; s++ {
			if s != tt && alive[s] && DominatesKnown(d, s, tt) {
				wantSets[tt] = append(wantSets[tt], s)
			}
		}
	}
	if got := ix.DominatingSets(); !reflect.DeepEqual(got, wantSets) {
		t.Fatalf("alive DominatingSets: index disagrees with naive restriction")
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := 0
			if alive[u] && alive[v] {
				for x := 0; x < n; x++ {
					if alive[x] && x != u && x != v && DominatesKnown(d, u, x) && DominatesKnown(d, v, x) {
						want++
					}
				}
			}
			if got := ix.FreqCounter().Freq(u, v); got != want {
				t.Fatalf("alive Freq(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("OracleSkyline on a restricted index should panic")
		}
	}()
	ix.OracleSkyline()
}

func TestIndexAliveAllTrueMatchesUnrestricted(t *testing.T) {
	d := randData(32, 100, 3, 1, dataset.Independent)
	alive := make([]bool, d.N())
	for i := range alive {
		alive[i] = true
	}
	ix := NewIndexAlive(d, alive)
	if !ix.Matches(d) {
		t.Fatalf("all-true mask should normalize to unrestricted")
	}
	ix.OracleSkyline() // must not panic
}

// TestIndexParallelPath forces the sharded kernels on a small dataset so
// the race detector sees the concurrent tile writes, transpose blocks and
// derivation shards.
func TestIndexParallelPath(t *testing.T) {
	old := parallelThreshold
	parallelThreshold = 1
	t.Cleanup(func() { parallelThreshold = old })
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
		checkIndexAgainstNaive(t, randData(41+int64(dist), 130, 3, 2, dist))
	}
}

// TestIndexManyChunks crosses the candidate-chunk boundary so multi-tile
// targets and the chunk clamping are exercised.
func TestIndexManyChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential")
	}
	d := randData(51, indexCandChunk+300, 3, 1, dataset.AntiCorrelated)
	ix := NewIndex(d)
	if got, want := ix.DominatingSets(), DominatingSetsParallel(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("DominatingSets disagrees across chunk boundary")
	}
	if got, want := ix.OracleSkyline(), OracleSkylineParallel(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("OracleSkyline disagrees across chunk boundary")
	}
}

// requireBitIdentical compares two indexes over the same dataset word
// for word: layout, every dominator row, every transposed row, counts,
// and the pair total. This is the "parallel build is deterministic"
// contract — not just equal derivations, the identical bitmap.
func requireBitIdentical(t *testing.T, ref, got *Index, workers int) {
	t.Helper()
	if !reflect.DeepEqual(got.order, ref.order) || !reflect.DeepEqual(got.counts, ref.counts) {
		t.Fatalf("workers=%d: layout or counts differ from serial build", workers)
	}
	if got.stats.Pairs != ref.stats.Pairs {
		t.Fatalf("workers=%d: pairs = %d, serial %d", workers, got.stats.Pairs, ref.stats.Pairs)
	}
	for p := range ref.domBy {
		if !reflect.DeepEqual(got.domBy[p], ref.domBy[p]) {
			t.Fatalf("workers=%d: dominator row %d differs from serial build", workers, p)
		}
		if !reflect.DeepEqual(got.dom[p], ref.dom[p]) {
			t.Fatalf("workers=%d: transposed row %d differs from serial build", workers, p)
		}
	}
	if !reflect.DeepEqual(got.DominatingSets(), ref.DominatingSets()) {
		t.Fatalf("workers=%d: DominatingSets differ from serial build", workers)
	}
}

// TestIndexWorkerCountDeterminism builds the same datasets at 1, 2, 3, 4
// and 8 workers with the fan-out threshold floored, covering both
// parallel schedules (chunk pool when chunks outnumber workers, sharded
// target loop otherwise), and requires every build to be bit-for-bit the
// one-worker result.
func TestIndexWorkerCountDeterminism(t *testing.T) {
	oldT := parallelThreshold
	parallelThreshold = 1
	t.Cleanup(func() { parallelThreshold = oldT; SetMaxWorkers(0) })
	shapes := map[string]*dataset.Dataset{
		"IND":  randData(71, 260, 4, 0, dataset.Independent),
		"ANT":  randData(72, 300, 3, 0, dataset.AntiCorrelated),
		"dups": withDuplicates(t, randData(73, 220, 3, 1, dataset.Independent), 73),
		"tiny": randData(75, 3, 2, 0, dataset.Independent),
	}
	if !testing.Short() {
		// Three candidate chunks: workers 2 and 3 take the chunk pool,
		// 4 and 8 fall back to the sharded target loop.
		shapes["multi-chunk"] = randData(74, 2*indexCandChunk+100, 3, 0, dataset.AntiCorrelated)
	}
	for name, d := range shapes {
		t.Run(name, func(t *testing.T) {
			SetMaxWorkers(1)
			ref := NewIndex(d)
			for _, w := range []int{2, 3, 4, 8} {
				SetMaxWorkers(w)
				requireBitIdentical(t, ref, NewIndex(d), w)
			}
			SetMaxWorkers(0)
		})
	}
}

// FuzzIndex drives the full differential battery from fuzzed shape and
// seed bytes.
func FuzzIndex(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint8(24), uint8(1), uint8(0), uint8(1))
	f.Add(int64(3), uint8(7), uint8(5), uint8(3), uint8(2))
	f.Add(int64(4), uint8(1), uint8(2), uint8(1), uint8(0))
	f.Add(int64(5), uint8(16), uint8(4), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, dk, dc, dist uint8) {
		nn := int(n%24) + 1
		dkk := int(dk%5) + 1
		dcc := int(dc % 4)
		d := randData(seed, nn, dkk, dcc, dataset.Distribution(dist%3))
		if seed%2 == 0 {
			d = withDuplicates(t, d, seed)
		}
		checkIndexAgainstNaive(t, d)
	})
}

// checkForEachDominated asserts that ForEachDominated(s) visits exactly
// {t : s ∈ DS(t)}, each t once, for every tuple s of the index — the
// inverse of DominatingSets, whatever the index's alive state.
func checkForEachDominated(t *testing.T, ix *Index, n int) {
	t.Helper()
	want := make([][]int, n)
	for tt, ds := range ix.DominatingSets() {
		for _, s := range ds {
			want[s] = append(want[s], tt)
		}
	}
	for s := 0; s < n; s++ {
		var got []int
		ix.ForEachDominated(s, func(tt int) { got = append(got, tt) })
		sort.Ints(got)
		if !reflect.DeepEqual(got, want[s]) {
			t.Fatalf("ForEachDominated(%d) visited %v, DominatingSets' inverse is %v", s, got, want[s])
		}
	}
}

// TestForEachDominated checks the dominated-tuple walk against the
// dominating sets on static and alive-masked indexes; mutated indexes are
// covered through checkDynamicAgainstRebuild.
func TestForEachDominated(t *testing.T) {
	for name, d := range indexDatasets(t) {
		d := d
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			n := d.N()
			checkForEachDominated(t, NewIndex(d), n)
			rng := rand.New(rand.NewSource(int64(n)))
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = rng.Intn(3) != 0
			}
			checkForEachDominated(t, NewIndexAlive(d, alive), n)
		})
	}
}
