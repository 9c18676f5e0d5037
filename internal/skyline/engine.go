package skyline

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdsky/internal/bitset"
	"crowdsky/internal/dataset"
)

// This file is the columnar dominance engine. Every crowd-enabled run
// needs the same quadratic machine part — dominating sets (Definition 5),
// immediate dominators (Figure 5), co-domination frequencies (Sections 3.4
// and 5) and ground-truth grading — and the row-pointer kernels in
// domsets.go/parallel.go recompute the underlying pair-wise dominance
// tests for each construction independently. Index computes the dominance
// relation exactly once, as a bitmap, and derives everything else from it:
//
//   - the known attributes are materialized into a flat column-major (SoA)
//     float64 layout, so the kernel streams contiguous memory instead of
//     chasing [][]float64 row pointers;
//   - tuples are sorted by a monotone score (the attribute sum, the SFS
//     ordering already used in algorithms.go): s ≺AK t implies
//     score(s) ≤ score(t), so a tuple's dominators all live in the sorted
//     prefix up to the end of its equal-score run — roughly halving the
//     candidate space and bounding each bitmap row;
//   - the bitmap dom(t) = {s : s ≺AK t} is built in cache-blocked
//     candidate chunks with a rank kernel: per attribute the chunk's
//     sorted-prefix bitmaps ("the r smallest candidates") are
//     materialized once, every target's per-attribute rank selects one
//     prefix row, and the dominator words are the AND of the selected
//     rows — 64 dominance tests collapse into dims word-ANDs with no
//     float comparison in the hot loop. Exact-duplicate groups (identical
//     known rows, which would survive the weak-AND) are cleared in a
//     final pass, restoring strictness;
//   - DominatingSets is an exact-size counting transpose (no
//     append-regrow), ImmediateDominators is a bitset intersection test
//     per (dominator, target) pair instead of an O(|DS|²·d) rescan,
//     FreqCounter wraps the transposed bitmap for free, and OracleSkyline
//     grades from the bitmap plus the latent values.
//
// The derivations are bit-for-bit identical to the naive constructions;
// index_test.go and the differential oracle fuzz harness enforce that.

// indexCandChunk is the number of candidate positions per cache block.
// The rank kernel materializes (indexCandChunk+1) sorted-prefix bitmap
// rows of indexCandChunk/64 words per attribute — at 1024 candidates
// that is 128 KiB per attribute, so a 4-attribute chunk table stays
// L2-resident while every target scans it. Must be a multiple of 64 so
// chunk word ranges never straddle a bitmap word.
const indexCandChunk = 1024

// IndexStats describes one build, for telemetry and the bench harness.
type IndexStats struct {
	// N is the number of tuples indexed (alive tuples when restricted).
	N int
	// Dims is the number of known attributes.
	Dims int
	// Pairs is the number of dominance pairs recorded in the bitmap.
	Pairs int
	// BitmapBytes is the memory held by the two bitmaps (dominators-of
	// and dominated-by).
	BitmapBytes int64
	// BuildDuration is the wall-clock time of the build, including the
	// transpose.
	BuildDuration time.Duration
}

// Index is a dominance index over the known attributes of a dataset
// (optionally restricted to a subset of alive tuples). Build it once per
// run with NewIndex/NewIndexAlive and derive every machine-part
// construction from it; the derivations never re-run a pair-wise
// dominance test. After construction an Index is safe for concurrent
// readers; the slices returned by DominatingSets and ImmediateDominators
// are shared and must not be modified.
//
// An Index is also a live structure: Add and Remove (dynamic.go) toggle
// tuples in and out of the indexed set in O(n·dims) compare work and
// O(n/64) words of bitmap updates per dimension, instead of a rebuild.
// Mutations require exclusive access (no concurrent readers during an
// Add/Remove) and bump a generation counter that lazily invalidates the
// memoized derivations.
type Index struct {
	d    *dataset.Dataset
	n    int // d.N()
	m    int // laid-out positions (alive tuples at build; all n once dynamic)
	dims int

	alive []bool // nil when unrestricted; nil in dynamic mode (see dyn)

	order    []int     // position -> original tuple index
	pos      []int     // original tuple index -> position; -1 when dead
	cols     []float64 // column-major over positions: cols[j*m+p]
	runStart []int     // per position: start of its equal-score run
	runEnd   []int     // per position: end (exclusive) of its equal-score run

	// attrOrder[j] holds the positions in ascending order of attribute j
	// (ties arbitrary but deterministic). The build derives the chunk
	// prefix tables and target ranks from it; it is retained because the
	// duplicate bookkeeping of the dynamic path shares its equal-value
	// grouping.
	attrOrder [][]int32

	// dupOf[p] is the exact-duplicate group of position p (-1 when its
	// known row is unique); dupGroups lists each group's member
	// positions. The relation depends only on attribute values, never on
	// aliveness, so it is computed once at build time and consulted by
	// both OracleSkyline (AK-identical tuples are decided by AC alone)
	// and the incremental add kernel (duplicates are weak, never strict).
	dupOf     []int32
	dupGroups [][]int32

	// domBy[p] = {q : order[q] ≺AK order[p]} with bits keyed by position.
	// Rows are truncated to the words covering [0, runEnd[p]): no
	// dominator can sort after the target's equal-score run. Dynamic
	// mode widens every row to full width so mutations can set any bit.
	domBy []bitset.Set
	// dom[q] = {p : order[q] ≺AK order[p]}, the transpose, full width.
	dom    []bitset.Set
	counts []int // |DS| per position

	// gen counts mutations; the memoized derivations record the
	// generation they were computed at and rebuild lazily when it moved.
	gen uint64

	setsMu    sync.Mutex
	sets      [][]int // memoized DominatingSets, indexed by original tuple
	setsValid bool
	setsGen   uint64

	dyn *dynState // non-nil once the index went dynamic (dynamic.go)

	stats IndexStats
}

// NewIndex builds the dominance index over every tuple of d.
func NewIndex(d *dataset.Dataset) *Index { return NewIndexAlive(d, nil) }

// NewIndexAlive builds the index over the tuples with alive[t] == true;
// dead tuples get empty dominating sets and are never candidates, exactly
// like the alive-restricted naive construction in package core. A nil or
// all-true mask builds the unrestricted index.
func NewIndexAlive(d *dataset.Dataset, alive []bool) *Index {
	start := time.Now()
	n := d.N()
	if alive != nil {
		all := true
		for t := 0; t < n; t++ {
			if !alive[t] {
				all = false
				break
			}
		}
		if all {
			alive = nil
		} else {
			alive = append([]bool(nil), alive...)
		}
	}
	ix := &Index{d: d, n: n, dims: d.KnownDims(), alive: alive}
	ix.layout()
	ix.buildBitmap()
	ix.transpose()
	words := 0
	for p := 0; p < ix.m; p++ {
		words += len(ix.domBy[p]) + len(ix.dom[p])
	}
	ix.stats.N = ix.m
	ix.stats.Dims = ix.dims
	ix.stats.BitmapBytes = int64(words) * 8
	ix.stats.BuildDuration = time.Since(start)
	return ix
}

// layout sorts the alive tuples by ascending attribute-sum score (ties by
// original index, so the order is deterministic) and materializes the
// column-major value layout plus the equal-score run bounds.
//
// Summing left to right is monotone under component-wise ≤, so
// s ≺AK t implies score(s) ≤ score(t) even with rounding; strictness can
// be lost to rounding, which is why a tuple's equal-score run is included
// in its candidate range.
func (ix *Index) layout() {
	d, n := ix.d, ix.n
	order := make([]int, 0, n)
	for t := 0; t < n; t++ {
		if ix.alive == nil || ix.alive[t] {
			order = append(order, t)
		}
	}
	m := len(order)
	score := make([]float64, n)
	for _, t := range order {
		s := 0.0
		for _, v := range d.KnownRow(t) {
			s += v
		}
		score[t] = s
	}
	sort.Slice(order, func(x, y int) bool {
		// skylint:ignore floateq exact score ties define the runs; an epsilon would break the prefix invariant
		if score[order[x]] != score[order[y]] {
			return score[order[x]] < score[order[y]]
		}
		return order[x] < order[y]
	})
	pos := make([]int, n)
	for t := range pos {
		pos[t] = -1
	}
	for p, t := range order {
		pos[t] = p
	}
	cols := make([]float64, m*ix.dims)
	for p, t := range order {
		row := d.KnownRow(t)
		for j, v := range row {
			cols[j*m+p] = v
		}
	}
	runStart := make([]int, m)
	runEnd := make([]int, m)
	for lo := 0; lo < m; {
		hi := lo + 1
		// skylint:ignore floateq runs are exact-score ties by construction
		for hi < m && score[order[hi]] == score[order[lo]] {
			hi++
		}
		for p := lo; p < hi; p++ {
			runStart[p], runEnd[p] = lo, hi
		}
		lo = hi
	}
	ix.m, ix.order, ix.pos, ix.cols = m, order, pos, cols
	ix.runStart, ix.runEnd = runStart, runEnd
}

// indexAccum merges the per-shard pair counts of the bitmap kernel.
type indexAccum struct {
	mu    sync.Mutex
	pairs int // skylint:guardedby mu
}

// buildBitmap runs the rank kernel. Per candidate chunk it materializes,
// for every attribute, the chunk's sorted-prefix bitmaps prefix[r] =
// "the r smallest chunk candidates on this attribute" and every target's
// rank (how many chunk candidates are ≤ the target, ties included). The
// weak dominators of a target inside the chunk are then
//
//	AND over attributes of prefix[rank(target)]
//
// written word-wise into the target's bitmap row — no float comparison
// in the hot loop. Weak dominance over-counts exactly the candidates
// with a bit-identical known row (and the target itself), so a final
// pass clears each exact-duplicate group and counts the rows.
//
// Two parallel schedules produce the identical bitmap: when there are at
// least as many chunks as workers, whole chunks are claimed from an
// atomic counter and processed with per-worker scratch tables (chunks
// write disjoint word columns of the target rows, so no locks); with few
// chunks the serial chunk loop shards the target AND loop instead (shards
// own disjoint target ranges over read-only tables). Either way every
// output word has exactly one writer, so the result is bit-for-bit
// identical to the one-worker build.
func (ix *Index) buildBitmap() {
	m, dims := ix.m, ix.dims

	// Exact-size row allocation from one backing array: row p covers the
	// words of [0, runEnd[p]).
	rowWords := make([]int, m)
	total := 0
	for p := 0; p < m; p++ {
		rowWords[p] = (ix.runEnd[p] + 63) >> 6
		total += rowWords[p]
	}
	backing := make([]uint64, total)
	ix.domBy = make([]bitset.Set, m)
	off := 0
	for p := 0; p < m; p++ {
		ix.domBy[p] = bitset.Set(backing[off : off+rowWords[p] : off+rowWords[p]])
		off += rowWords[p]
	}
	ix.counts = make([]int, m)
	ix.dupOf = make([]int32, m)
	for p := range ix.dupOf {
		ix.dupOf[p] = -1
	}
	if m == 0 || dims == 0 {
		// No attributes means no strict preference anywhere: empty rows.
		ix.attrOrder = make([][]int32, dims)
		for j := range ix.attrOrder {
			ix.attrOrder[j] = []int32{}
		}
		return
	}

	ix.buildAttrOrder()

	const cw = indexCandChunk >> 6 // words per full chunk
	nchunks := (m + indexCandChunk - 1) / indexCandChunk
	workers := workerCount()
	if workers > 1 && m >= parallelThreshold && nchunks >= workers {
		// Chunk pool: each worker owns private scratch tables and claims
		// chunk indices from the counter until they run out.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prefix := make([]uint64, dims*(indexCandChunk+1)*cw)
				rank := make([]int32, dims*m)
				for {
					c := int(next.Add(1)) - 1
					if c >= nchunks {
						return
					}
					ix.buildChunk(c*indexCandChunk, prefix, rank, false)
				}
			}()
		}
		wg.Wait()
	} else {
		prefix := make([]uint64, dims*(indexCandChunk+1)*cw)
		rank := make([]int32, dims*m)
		for cbase := 0; cbase < m; cbase += indexCandChunk {
			if !ix.buildChunk(cbase, prefix, rank, true) {
				break
			}
		}
	}

	ix.buildDupGroups()

	var acc indexAccum
	shard(m, func(lo, hi int) {
		localPairs := 0
		for p := lo; p < hi; p++ {
			row := ix.domBy[p]
			if g := ix.dupOf[p]; g >= 0 {
				for _, q := range ix.dupGroups[g] {
					row.Remove(int(q)) // duplicates (incl. self) are weak only
				}
			} else {
				row.Remove(p)
			}
			c := row.Count()
			ix.counts[p] = c
			localPairs += c
		}
		acc.mu.Lock()
		acc.pairs += localPairs
		acc.mu.Unlock()
	})
	acc.mu.Lock()
	ix.stats.Pairs = acc.pairs
	acc.mu.Unlock()
}

// buildAttrOrder materializes the global per-attribute value order
// (ascending, ties by position, which the stable index guarantees to be
// deterministic): the source of both chunk-sorted prefixes and target
// ranks. Attributes sort independently, so they sort on separate workers.
func (ix *Index) buildAttrOrder() {
	m, dims, cols := ix.m, ix.dims, ix.cols
	ix.attrOrder = make([][]int32, dims)
	shardSized(dims, m, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			ord := make([]int32, m)
			for p := range ord {
				ord[p] = int32(p)
			}
			col := cols[j*m : (j+1)*m]
			sort.Slice(ord, func(x, y int) bool { return col[ord[x]] < col[ord[y]] })
			ix.attrOrder[j] = ord
		}
	})
}

// buildChunk processes one candidate chunk: it fills the caller-owned
// prefix/rank scratch tables for every attribute, then ANDs the selected
// prefix rows into the word column this chunk owns of every target row.
// With shardTargets the AND loop fans out across workers (the serial
// chunk schedule); otherwise the caller is one of several chunk workers
// and runs it inline. Returns false when the chunk — and, runEnd being
// nondecreasing, every later one — has no targets.
func (ix *Index) buildChunk(cbase int, prefix []uint64, rank []int32, shardTargets bool) bool {
	m, dims, cols := ix.m, ix.dims, ix.cols
	const cw = indexCandChunk >> 6
	cend := cbase + indexCandChunk
	if cend > m {
		cend = m
	}
	// A target's candidates stop at its equal-score run, and runEnd is
	// nondecreasing in position, so the targets of this chunk are the
	// suffix starting at the first position whose run reaches past cbase.
	tlo := sort.Search(m, func(p int) bool { return ix.runEnd[p] > cbase })
	if tlo == m {
		return false
	}

	for j := 0; j < dims; j++ {
		ptab := prefix[j*(indexCandChunk+1)*cw:]
		for w := 0; w < cw; w++ {
			ptab[w] = 0 // rank-0 row
		}
		col := cols[j*m : (j+1)*m]
		rnk := rank[j*m:]
		ord := ix.attrOrder[j]
		// Walk the global order in equal-value groups: admit the
		// group's chunk members into the running prefix first, then
		// stamp every group member's rank, so rank counts ties.
		cnt := 0
		for lo := 0; lo < m; {
			hi := lo + 1
			v := col[ord[lo]]
			// skylint:ignore floateq rank groups mirror the exact <=/< of DominatesKnown
			for hi < m && col[ord[hi]] == v {
				hi++
			}
			for i := lo; i < hi; i++ {
				p := int(ord[i])
				if p < cbase || p >= cend {
					continue
				}
				src := ptab[cnt*cw : cnt*cw+cw]
				cnt++
				dst := ptab[cnt*cw : cnt*cw+cw]
				copy(dst, src)
				b := uint(p - cbase)
				dst[b>>6] |= 1 << (b & 63)
			}
			for i := lo; i < hi; i++ {
				rnk[ord[i]] = int32(cnt)
			}
			lo = hi
		}
	}

	wbase := cbase >> 6
	and := func(lo, hi int) {
		for pt := tlo + lo; pt < tlo+hi; pt++ {
			row := ix.domBy[pt]
			lim := len(row) - wbase
			if lim > cw {
				lim = cw
			}
			p0 := prefix[int(rank[pt])*cw:]
			row = row[wbase : wbase+lim]
			for w := 0; w < lim; w++ {
				v := p0[w]
				for j := 1; j < dims; j++ {
					v &= prefix[(j*(indexCandChunk+1)+int(rank[j*m+pt]))*cw+w]
				}
				row[w] = v
			}
		}
	}
	if shardTargets {
		shard(m-tlo, and)
	} else {
		and(0, m-tlo)
	}
	return true
}

// buildDupGroups computes the exact-duplicate groups: tuples with
// bit-identical known rows are mutually weakly-dominating but never
// strictly, and they necessarily share an equal-score run, so only
// multi-tuple runs need the row comparison. The relation depends only on
// attribute values, so the groups stay valid across Add/Remove cycles of
// the dynamic path.
func (ix *Index) buildDupGroups() {
	ix.dupGroups = nil
	var members []int32
	for lo := 0; lo < ix.m; lo = ix.runEnd[lo] {
		hi := ix.runEnd[lo]
		if hi-lo < 2 {
			continue
		}
		members = members[:0]
		for p := lo; p < hi; p++ {
			members = append(members, int32(p))
		}
		sort.Slice(members, func(x, y int) bool { return ix.rowLess(int(members[x]), int(members[y])) })
		for a := 0; a < len(members); {
			b := a + 1
			for b < len(members) && ix.rowEqual(int(members[a]), int(members[b])) {
				b++
			}
			if b-a >= 2 {
				g := append([]int32(nil), members[a:b]...)
				for _, p := range g {
					ix.dupOf[p] = int32(len(ix.dupGroups))
				}
				ix.dupGroups = append(ix.dupGroups, g)
			}
			a = b
		}
	}
}

// rowLess orders positions by their known rows lexicographically.
func (ix *Index) rowLess(p, q int) bool {
	for j := 0; j < ix.dims; j++ {
		pv, qv := ix.cols[j*ix.m+p], ix.cols[j*ix.m+q]
		// skylint:ignore floateq duplicate grouping must be bit-exact to match DominatesKnown
		if pv != qv {
			return pv < qv
		}
	}
	return false
}

// rowEqual reports bit-exact equality of two positions' known rows.
func (ix *Index) rowEqual(p, q int) bool {
	for j := 0; j < ix.dims; j++ {
		// skylint:ignore floateq duplicate grouping must be bit-exact to match DominatesKnown
		if ix.cols[j*ix.m+p] != ix.cols[j*ix.m+q] {
			return false
		}
	}
	return true
}

// transpose builds dom (dominated-by rows) from domBy (dominators-of
// rows) with 64×64 bit-block transposes. Shards own disjoint destination
// row blocks, so writes never race.
func (ix *Index) transpose() {
	m := ix.m
	words := (m + 63) >> 6
	backing := make([]uint64, m*words)
	ix.dom = make([]bitset.Set, m)
	for p := 0; p < m; p++ {
		ix.dom[p] = bitset.Set(backing[p*words : (p+1)*words : (p+1)*words])
	}
	blocks := words
	// Partition units are 64-row blocks, so the fan-out decision weighs
	// the tuple count, not the block count.
	shardSized(blocks, m, func(lo, hi int) {
		var blk [64]uint64
		for bc := lo; bc < hi; bc++ { // destination row block = source word column
			for br := 0; br < blocks; br++ { // source row block = destination word column
				any := false
				for k := 0; k < 64; k++ {
					var wv uint64
					if pt := br<<6 + k; pt < m {
						if row := ix.domBy[pt]; bc < len(row) {
							wv = row[bc]
						}
					}
					blk[k] = wv
					any = any || wv != 0
				}
				if !any {
					continue
				}
				transpose64(&blk)
				for k := 0; k < 64; k++ {
					if ps := bc<<6 + k; ps < m && blk[k] != 0 {
						ix.dom[ps][br] = blk[k]
					}
				}
			}
		}
	})
}

// transpose64 transposes a 64×64 bit matrix in place: afterwards, bit j
// of word i is the former bit i of word j (Hacker's Delight 7-3 adapted
// to 64 bits and the bit-k-is-column-k convention: each pass swaps the
// off-diagonal blocks of the current block size, halving it).
func transpose64(a *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := ((a[k] >> j) ^ a[k+int(j)]) & mask
			a[k] ^= t << j
			a[k+int(j)] ^= t
		}
		mask ^= mask << (j >> 1)
	}
}

// Stats returns the build statistics.
func (ix *Index) Stats() IndexStats { return ix.stats }

// N returns the number of tuples currently indexed (alive).
func (ix *Index) N() int {
	if ix.dyn != nil {
		return ix.m - ix.dyn.dead
	}
	return ix.m
}

// Matches reports whether the index currently covers exactly this
// dataset — built over it with no alive restriction and with every tuple
// presently alive — i.e. whether a caller holding d may adopt it
// wholesale. An index that drifted away through Remove calls stops
// matching until the removals are undone; pair it with Generation to
// detect mutation between two looks at the same index.
func (ix *Index) Matches(d *dataset.Dataset) bool { return ix.d == d && ix.allAlive() }

// allAlive reports whether every tuple of the dataset is indexed: no
// build-time restriction and no outstanding dynamic removals.
func (ix *Index) allAlive() bool {
	return ix.alive == nil && (ix.dyn == nil || ix.dyn.dead == 0)
}

// aliveAt reports whether position p is currently indexed (always true
// until the index goes dynamic and the tuple is removed).
func (ix *Index) aliveAt(p int) bool { return ix.dyn == nil || ix.dyn.aliveBits.Has(p) }

// Generation returns the mutation counter: it starts at zero and every
// successful Add or Remove increments it, so equal generations from the
// same Index imply identical dominance state. Derived caches
// (DominatingSets, and through it ImmediateDominators) key off it to
// rebuild lazily after mutations.
func (ix *Index) Generation() uint64 { return ix.gen }

// Dominates reports order-theoretic dominance s ≺AK t straight from the
// bitmap. Dead tuples dominate nothing and are dominated by nothing.
//
//skylint:hotpath
func (ix *Index) Dominates(s, t int) bool {
	ps, pt := ix.pos[s], ix.pos[t]
	if ps < 0 || pt < 0 {
		return false
	}
	return ps>>6 < len(ix.domBy[pt]) && ix.domBy[pt].Has(ps)
}

// ForEachDominated calls fn(t) for every tuple t with s ≺AK t, in index
// position order (not ascending t). It walks the transposed bitmap row
// the index already holds, so it allocates nothing; a dead or unindexed s
// dominates nothing. Together over all s it visits exactly the inverse of
// DominatingSets. fn must not mutate the index. It carries no hotpath
// annotation because the call graph resolves fn to every func(int) in the
// program; TestZeroAlloc gates it instead.
func (ix *Index) ForEachDominated(s int, fn func(t int)) {
	ps := ix.pos[s]
	if ps < 0 {
		return
	}
	for wi, w := range ix.dom[ps] {
		for ; w != 0; w &= w - 1 {
			fn(ix.order[wi<<6+bits.TrailingZeros64(w)])
		}
	}
}

// DominatingSets returns DS(t) = {s : s ≺AK t} for every tuple, indexed
// by original tuple index with dominators in ascending index order —
// bit-for-bit the result of the naive DominatingSets (dead tuples and
// skyline tuples get nil sets). The first call materializes the sets by
// transposed counting fill: every set is carved at its exact size from
// one backing array, so nothing regrows. The result is memoized and
// shared; callers must not modify it. Add/Remove invalidate the memo (by
// generation), so the next call rebuilds against the mutated bitmap.
func (ix *Index) DominatingSets() [][]int {
	ix.setsMu.Lock()
	defer ix.setsMu.Unlock()
	if !ix.setsValid || ix.setsGen != ix.gen {
		ix.buildSets()
		ix.setsValid = true
		ix.setsGen = ix.gen
	}
	return ix.sets
}

func (ix *Index) buildSets() {
	m, n := ix.m, ix.n
	total := 0
	off := make([]int, m+1)
	for p := 0; p < m; p++ {
		off[p+1] = off[p] + ix.counts[p]
		total += ix.counts[p]
	}
	backing := make([]int, total)
	cursor := append([]int(nil), off[:m]...)
	// The scatter walks sources in ascending original index, so every
	// target's set fills in ascending dominator order without a sort.
	// Workers own disjoint word ranges of the transposed rows — hence
	// disjoint target-position ranges, cursors, and backing segments — so
	// the parallel fill writes every slot exactly once, in the same order
	// as the serial one.
	words := (m + 63) >> 6
	shardSized(words, m, func(wlo, whi int) {
		for u := 0; u < n; u++ {
			ps := ix.pos[u]
			if ps < 0 {
				continue
			}
			row := ix.dom[ps]
			for wi := wlo; wi < whi; wi++ {
				w := row[wi]
				for w != 0 {
					pt := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					backing[cursor[pt]] = u
					cursor[pt]++
				}
			}
		}
	})
	sets := make([][]int, n)
	for p := 0; p < m; p++ {
		if ix.counts[p] > 0 {
			sets[ix.order[p]] = backing[off[p]:off[p+1]:off[p+1]]
		}
	}
	ix.sets = sets
}

// ImmediateDominators returns c(t) for every tuple: the members of DS(t)
// with no intermediate dominator, identical to the naive
// ImmediateDominators over this index's dominating sets. Each membership
// test is one early-exit bitset intersection — s is immediate iff the set
// of tuples s dominates is disjoint from DS(t) — instead of an
// O(|DS|·d) rescan per member.
func (ix *Index) ImmediateDominators() [][]int {
	sets := ix.DominatingSets()
	im := make([][]int, ix.n)
	shard(ix.m, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			t := ix.order[p]
			ds := sets[t]
			if len(ds) == 0 {
				continue
			}
			dominators := ix.domBy[p]
			for _, s := range ds {
				if !ix.dom[ix.pos[s]].Intersects(dominators) {
					im[t] = append(im[t], s)
				}
			}
		}
	})
	return im
}

// FreqCounter returns a co-domination frequency counter backed by the
// index's bitmap; building it costs nothing beyond the index itself.
func (ix *Index) FreqCounter() *FreqCounter {
	return &FreqCounter{dominated: ix.dom, pos: ix.pos}
}

// KnownSkyline returns SKY_AK over the indexed tuples — exactly the
// alive tuples with empty dominating sets — in ascending index order.
func (ix *Index) KnownSkyline() []int {
	var sky []int
	for t := 0; t < ix.n; t++ {
		if p := ix.pos[t]; p >= 0 && ix.counts[p] == 0 && ix.aliveAt(p) {
			sky = append(sky, t)
		}
	}
	return sky
}

// OracleSkyline computes SKY_A(R) from the bitmap plus the latent crowd
// values, identical to the naive OracleSkyline: a tuple is dominated over
// A = AK ∪ AC iff some AK-dominator also weakly precedes it on every
// crowd attribute, or some AK-identical tuple strictly precedes it in AC.
// AK-identical tuples are exactly the members of the target's duplicate
// group, so the second case walks the persisted group instead of
// re-comparing rows. Like the naive oracle it may only be used for
// grading, never by a crowd-enabled algorithm.
func (ix *Index) OracleSkyline() []int {
	if !ix.allAlive() {
		panic("skyline: OracleSkyline needs an unrestricted index")
	}
	d, m := ix.d, ix.m
	dc := d.CrowdDims()
	inSky := make([]bool, m)
	shard(m, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			t := ix.order[p]
			dominated := false
		scan:
			for wi, w := range ix.domBy[p] {
				for w != 0 {
					s := ix.order[wi<<6+bits.TrailingZeros64(w)]
					w &= w - 1
					// s ≺AK t already holds, so s ≺A t iff s is nowhere
					// worse on the crowd attributes.
					if latentWeaklyPrefers(d, s, t, dc) {
						dominated = true
						break scan
					}
				}
			}
			if g := ix.dupOf[p]; g >= 0 && !dominated {
				for _, qp := range ix.dupGroups[g] {
					q := int(qp)
					if q == p {
						continue
					}
					if latentStrictlyDominates(d, ix.order[q], t, dc) {
						dominated = true
						break
					}
				}
			}
			inSky[p] = !dominated
		}
	})
	var sky []int
	for t := 0; t < ix.n; t++ {
		if inSky[ix.pos[t]] {
			sky = append(sky, t)
		}
	}
	return sky
}

// latentWeaklyPrefers reports that s is no worse than t on every crowd
// attribute.
func latentWeaklyPrefers(d *dataset.Dataset, s, t, dc int) bool {
	for j := 0; j < dc; j++ {
		if d.Latent(s, j) > d.Latent(t, j) {
			return false
		}
	}
	return true
}

// latentStrictlyDominates reports s ≺AC t: no worse everywhere, strictly
// better somewhere.
func latentStrictlyDominates(d *dataset.Dataset, s, t, dc int) bool {
	strict := false
	for j := 0; j < dc; j++ {
		sv, tv := d.Latent(s, j), d.Latent(t, j)
		if sv > tv {
			return false
		}
		if sv < tv {
			strict = true
		}
	}
	return strict
}
