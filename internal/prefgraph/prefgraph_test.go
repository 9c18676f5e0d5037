package prefgraph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestBasicRelations(t *testing.T) {
	g := New(4)
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Known(0, 1) != Unknown {
		t.Errorf("fresh graph knows something")
	}
	if !g.AddPrefer(0, 1) {
		t.Fatalf("AddPrefer rejected")
	}
	if g.Known(0, 1) != Prefer || g.Known(1, 0) != Defer {
		t.Errorf("direct edge not recorded")
	}
	if !g.Prefers(0, 1) || g.Prefers(1, 0) {
		t.Errorf("Prefers wrong")
	}
	if !g.WeaklyPrefers(0, 1) || g.WeaklyPrefers(1, 0) {
		t.Errorf("WeaklyPrefers wrong")
	}
	if !g.Comparable(0, 1) || g.Comparable(0, 2) {
		t.Errorf("Comparable wrong")
	}
}

func TestTransitivity(t *testing.T) {
	g := New(5)
	g.AddPrefer(0, 1)
	g.AddPrefer(1, 2)
	g.AddPrefer(2, 3)
	if !g.Prefers(0, 3) {
		t.Errorf("transitive chain not inferred")
	}
	if g.Prefers(3, 0) || g.Comparable(0, 4) {
		t.Errorf("phantom relations")
	}
	// Adding an already-inferable edge is a no-op success.
	edges := g.Edges()
	if !g.AddPrefer(0, 2) {
		t.Errorf("re-adding inferable edge rejected")
	}
	if g.Edges() != edges {
		t.Errorf("inferable edge counted as new")
	}
}

func TestContradictions(t *testing.T) {
	g := New(3)
	g.AddPrefer(0, 1)
	g.AddPrefer(1, 2)
	if g.AddPrefer(2, 0) {
		t.Errorf("cycle-closing edge accepted")
	}
	if g.Contradictions() != 1 {
		t.Errorf("contradictions = %d, want 1", g.Contradictions())
	}
	// Graph unchanged: 0 still preferred over 2.
	if !g.Prefers(0, 2) {
		t.Errorf("contradiction mutated the graph")
	}
	if g.AddEqual(0, 2) {
		t.Errorf("equality over a strict preference accepted")
	}
	if g.Contradictions() != 2 {
		t.Errorf("contradictions = %d, want 2", g.Contradictions())
	}
}

func TestEqualityClasses(t *testing.T) {
	g := New(6)
	if !g.AddEqual(0, 1) {
		t.Fatalf("AddEqual rejected")
	}
	if g.Known(0, 1) != Equal || g.Known(1, 0) != Equal {
		t.Errorf("equality not recorded")
	}
	if !g.WeaklyPrefers(0, 1) || g.Prefers(0, 1) {
		t.Errorf("equality semantics wrong")
	}
	// Preferences transfer across the class.
	g.AddPrefer(1, 2)
	if !g.Prefers(0, 2) {
		t.Errorf("class member preference not shared")
	}
	g.AddPrefer(3, 0)
	if !g.Prefers(3, 1) {
		t.Errorf("incoming preference not shared")
	}
	// Merging classes with existing relations keeps transitivity.
	g.AddEqual(4, 5)
	g.AddPrefer(2, 4)
	if !g.Prefers(0, 5) || !g.Prefers(3, 5) {
		t.Errorf("closure across merged classes broken")
	}
	if g.Unions() != 2 {
		t.Errorf("unions = %d, want 2", g.Unions())
	}
	// Self-equality is trivially true.
	if !g.AddEqual(2, 2) {
		t.Errorf("self equality rejected")
	}
}

func TestEqualityMergeClosesOverBothSides(t *testing.T) {
	g := New(6)
	g.AddPrefer(0, 1) // 0 > 1
	g.AddPrefer(2, 3) // 2 > 3
	g.AddEqual(1, 2)  // merge middle
	if !g.Prefers(0, 3) {
		t.Errorf("0 > 1 = 2 > 3 should imply 0 > 3")
	}
	if !g.Prefers(0, 2) || !g.Prefers(1, 3) {
		t.Errorf("class-adjacent preferences missing")
	}
}

// model is the brute-force reference for Graph: a union–find of its own,
// the accepted edges as given, and a Floyd–Warshall closure over class
// representatives recomputed after every change.
type model struct {
	n              int
	parent         []int
	edges          [][2]int
	reach          [][]bool // reach[i][j] for representatives i, j
	nEdges, unions int
	contradictions int
}

func newModel(n int) *model {
	m := &model{n: n, reach: make([][]bool, n)}
	for i := range m.reach {
		m.reach[i] = make([]bool, n)
	}
	m.reset()
	return m
}

func (m *model) reset() {
	m.parent = make([]int, m.n)
	for i := range m.parent {
		m.parent[i] = i
	}
	m.edges = m.edges[:0]
	m.nEdges, m.unions, m.contradictions = 0, 0, 0
	m.close()
}

func (m *model) find(x int) int {
	for m.parent[x] != x {
		x = m.parent[x]
	}
	return x
}

func (m *model) close() {
	for _, row := range m.reach {
		clear(row)
	}
	for _, e := range m.edges {
		m.reach[m.find(e[0])][m.find(e[1])] = true
	}
	for k := 0; k < m.n; k++ {
		for i := 0; i < m.n; i++ {
			if !m.reach[i][k] {
				continue
			}
			for j, kj := range m.reach[k] {
				if kj {
					m.reach[i][j] = true
				}
			}
		}
	}
}

func (m *model) known(x, y int) Relation {
	rx, ry := m.find(x), m.find(y)
	switch {
	case rx == ry:
		return Equal
	case m.reach[rx][ry]:
		return Prefer
	case m.reach[ry][rx]:
		return Defer
	default:
		return Unknown
	}
}

func (m *model) addPrefer(a, b int) bool {
	ra, rb := m.find(a), m.find(b)
	switch {
	case ra == rb || m.reach[rb][ra]:
		m.contradictions++
		return false
	case m.reach[ra][rb]:
		return true
	}
	m.nEdges++
	m.edges = append(m.edges, [2]int{a, b})
	m.close()
	return true
}

func (m *model) addEqual(a, b int) bool {
	ra, rb := m.find(a), m.find(b)
	switch {
	case ra == rb:
		return true
	case m.reach[ra][rb] || m.reach[rb][ra]:
		m.contradictions++
		return false
	}
	m.unions++
	m.parent[rb] = ra
	m.close()
	return true
}

// ancestorMix reports, before merging the classes of a and b, whether
// some class reaches only a's class, only b's, and both.
func (m *model) ancestorMix(a, b int) (onlyA, onlyB, both bool) {
	ra, rb := m.find(a), m.find(b)
	for c := 0; c < m.n; c++ {
		if m.find(c) != c {
			continue
		}
		switch x, y := m.reach[c][ra], m.reach[c][rb]; {
		case x && y:
			both = true
		case x:
			onlyA = true
		case y:
			onlyB = true
		}
	}
	return onlyA, onlyB, both
}

// agree reports the first disagreement between g and m, checking every
// ordered pair, PreferredSet membership and the counters.
func agree(g *Graph, m *model) string {
	for x := 0; x < m.n; x++ {
		for y := 0; y < m.n; y++ {
			want := m.known(x, y)
			if got := g.Known(x, y); got != want {
				return fmt.Sprintf("Known(%d,%d) = %v, want %v", x, y, got, want)
			}
			if got := g.PreferredSet(x).Has(g.find(y)); got != (want == Prefer) {
				return fmt.Sprintf("PreferredSet(%d).Has(find(%d)) = %v, want %v", x, y, got, want == Prefer)
			}
		}
	}
	if g.Edges() != m.nEdges || g.Unions() != m.unions || g.Contradictions() != m.contradictions {
		return fmt.Sprintf("counters (edges, unions, contradictions) = (%d, %d, %d), want (%d, %d, %d)",
			g.Edges(), g.Unions(), g.Contradictions(), m.nEdges, m.unions, m.contradictions)
	}
	return ""
}

// TestAgainstBruteForce compares the incremental closure against the
// Floyd–Warshall reference on random answer streams, on every ordered
// pair after every step: the pruned backward walk is only correct while
// every row stays transitively closed, so no inconsistency may go
// unchecked. Equalities are frequent enough that merged classes have
// ancestors reaching only one side, the other, and both; the test
// asserts each case occurred. n=70 crosses a word boundary.
func TestAgainstBruteForce(t *testing.T) {
	var onlyA, onlyB, both int
	run := func(n int, seed int64, steps int) {
		rng := rand.New(rand.NewSource(seed))
		g, m := New(n), newModel(n)
		for step := 0; step < steps; step++ {
			a, b := rng.Intn(n), rng.Intn(n)
			var got, want bool
			if rng.Intn(3) == 0 {
				oa, ob, bo := m.ancestorMix(a, b)
				unions := m.unions
				got, want = g.AddEqual(a, b), m.addEqual(a, b)
				if m.unions > unions {
					onlyA, onlyB, both = onlyA+b2i(oa), onlyB+b2i(ob), both+b2i(bo)
				}
			} else {
				got, want = g.AddPrefer(a, b), m.addPrefer(a, b)
			}
			if got != want {
				t.Fatalf("n=%d seed %d step %d (%d,%d): accepted=%v, want %v", n, seed, step, a, b, got, want)
			}
			if msg := agree(g, m); msg != "" {
				t.Fatalf("n=%d seed %d step %d: %s", n, seed, step, msg)
			}
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		run(12, seed, 60)
	}
	for seed := int64(0); seed < 4; seed++ {
		run(70, seed, 400)
	}
	t.Logf("merges with ancestors reaching only one side / the other / both: %d / %d / %d", onlyA, onlyB, both)
	if onlyA == 0 || onlyB == 0 || both == 0 {
		t.Fatalf("merges with ancestors reaching only one side / the other / both: %d / %d / %d; want each > 0",
			onlyA, onlyB, both)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestPreferredSet(t *testing.T) {
	g := New(5)
	g.AddPrefer(0, 1)
	g.AddPrefer(1, 2)
	g.AddPrefer(3, 4)
	var got []int
	g.PreferredSet(0).ForEach(func(i int) { got = append(got, i) })
	sort.Ints(got)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("PreferredSet(0) = %v, want [1 2]", got)
	}
}

func TestRelationString(t *testing.T) {
	if Unknown.String() != "unknown" || Prefer.String() != "prefer" ||
		Defer.String() != "defer" || Equal.String() != "equal" {
		t.Errorf("relation names wrong")
	}
	if Relation(9).String() != "relation?" {
		t.Errorf("out-of-range relation name")
	}
}

// TestReset proves a Reset graph is indistinguishable from a fresh one:
// same empty state, and the same answers after replaying a different
// insertion sequence into both.
func TestReset(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(9))
	reused := New(n)
	for step := 0; step < 200; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if rng.Intn(4) == 0 {
			reused.AddEqual(a, b)
		} else {
			reused.AddPrefer(a, b)
		}
	}
	reused.Reset()
	if reused.Edges() != 0 || reused.Unions() != 0 || reused.Contradictions() != 0 {
		t.Fatalf("Reset left counters: %d edges, %d unions, %d contradictions",
			reused.Edges(), reused.Unions(), reused.Contradictions())
	}
	fresh := New(n)
	for step := 0; step < 200; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		var okR, okF bool
		if rng.Intn(4) == 0 {
			okR, okF = reused.AddEqual(a, b), fresh.AddEqual(a, b)
		} else {
			okR, okF = reused.AddPrefer(a, b), fresh.AddPrefer(a, b)
		}
		if okR != okF {
			t.Fatalf("step %d: reset graph accepted=%v, fresh graph accepted=%v", step, okR, okF)
		}
	}
	for s := 0; s < n; s++ {
		for u := 0; u < n; u++ {
			if reused.Known(s, u) != fresh.Known(s, u) {
				t.Fatalf("Known(%d,%d) differs between reset and fresh graph", s, u)
			}
		}
	}
	if reused.Edges() != fresh.Edges() || reused.Unions() != fresh.Unions() ||
		reused.Contradictions() != fresh.Contradictions() {
		t.Fatalf("counters differ between reset and fresh graph")
	}
}
