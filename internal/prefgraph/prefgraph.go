// Package prefgraph implements the preference tree T of Section 3.3: an
// incrementally maintained partial order over tuples in the crowd
// attributes, learned one crowd answer at a time.
//
// Each tuple is a node. A strict preference s ≺ t inserts an edge s → t;
// reachability (maintained as a bit-set transitive closure of each node's
// descendants) answers "is s preferred over t?" including everything
// inferable by transitivity — the machinery behind pruning P2 (Corollary 2)
// and P3 (Section 3.4). Accepted edges are also kept as per-class
// predecessor lists, so an insertion updates only the ancestor rows that
// actually change, found by a backward walk that stops at rows which
// already hold the new bits. Ternary "equally preferred" answers merge nodes
// into equivalence classes via union–find, so a preference recorded for
// either member holds for both.
//
// Crowds make mistakes (Section 5), so an insertion may contradict what is
// already known (s ≺ t arriving when t ≺ s is recorded or inferable). The
// graph is first-write-wins: the contradicting answer is dropped and
// counted, keeping T acyclic, which mirrors the paper's discussion of
// false-preference propagation.
package prefgraph

import "crowdsky/internal/bitset"

// Relation is the known relationship between an ordered pair of nodes.
type Relation int8

const (
	// Unknown means no preference between the pair is recorded or
	// inferable yet; the tuples are indifferent (s ⊥ t).
	Unknown Relation = iota
	// Prefer means the first node is strictly preferred over the second.
	Prefer
	// Defer means the second node is strictly preferred over the first.
	Defer
	// Equal means the two nodes are equally preferred.
	Equal
)

// String returns a short human-readable form.
func (r Relation) String() string {
	switch r {
	case Unknown:
		return "unknown"
	case Prefer:
		return "prefer"
	case Defer:
		return "defer"
	case Equal:
		return "equal"
	default:
		return "relation?"
	}
}

// Graph is the preference tree T over n nodes. The zero value is unusable;
// call New.
//
// Only the descendant closure is stored: reach[r] is kept transitively
// closed, and every accepted edge is recorded on its target class's
// predecessor list. An insertion walks those lists backwards from the
// class that gained descendants and updates only the rows that change: a
// class whose row already holds the new bits is skipped together with
// all of its ancestors, whose rows hold them too by closure.
type Graph struct {
	n      int
	parent []int // union–find parent for equality classes
	rank   []int

	// reach[r] for a class representative r: bit set of representatives
	// strictly less preferred than r (descendants). Bits are kept
	// representative-canonical: after a union the surviving
	// representative's bit is added wherever the absorbed one's appears;
	// stale bits of absorbed representatives are never queried because
	// lookups always canonicalize first.
	reach []bitset.Set

	// Predecessor lists: head[r] and tail[r] index the first and last
	// entry of class r's list in preds (-1 when empty). Each accepted
	// edge u → v adds one entry to v's list; a union splices the absorbed
	// class's list onto the survivor's. Entries name the predecessor as
	// it was when linked, so walks canonicalize with find.
	head, tail []int32
	preds      []pred

	// stack is the walk's explicit stack. A walk expands each class at
	// most once, so it pushes at most 1+len(preds) entries; link keeps
	// the stack that large.
	stack []int32

	edges          int // accepted strict-preference insertions
	unions         int // accepted equality insertions
	contradictions int // dropped answers that conflicted with T
}

// pred is one predecessor-list entry: the class an accepted edge came
// from, and the next entry of the same list (-1 ends it).
type pred struct{ from, next int32 }

// New creates an empty preference graph over nodes 0..n-1. The n closure
// rows are carved from a single arena, parent/rank share one backing
// array and head/tail another, and the predecessor arena and walk stack
// start with room for n edges, so a graph costs O(1) allocations however
// many nodes it has.
func New(n int) *Graph {
	pr := make([]int, 2*n)
	ht := make([]int32, 2*n)
	g := &Graph{
		n:      n,
		parent: pr[:n:n],
		rank:   pr[n:],
		reach:  bitset.Carve(n, n),
		head:   ht[:n:n],
		tail:   ht[n:],
		preds:  make([]pred, 0, n),
		stack:  make([]int32, n+1),
	}
	for i := 0; i < n; i++ {
		g.parent[i] = i
		g.head[i], g.tail[i] = -1, -1
	}
	return g
}

// Reset returns the graph to its freshly-built empty state without
// releasing its arenas: every closure row is zeroed, every node is its
// own class again, and the predecessor arena is truncated but keeps its
// capacity. Sessions that serve rounds against a fixed dataset reuse one
// graph per crowd attribute this way instead of reallocating n bit rows
// per run.
func (g *Graph) Reset() {
	for i := 0; i < g.n; i++ {
		g.parent[i] = i
		g.rank[i] = 0
		g.reach[i].Clear()
		g.head[i], g.tail[i] = -1, -1
	}
	g.preds = g.preds[:0]
	g.edges, g.unions, g.contradictions = 0, 0, 0
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

func (g *Graph) find(x int) int {
	for g.parent[x] != x {
		g.parent[x] = g.parent[g.parent[x]] // path halving
		x = g.parent[x]
	}
	return x
}

// Known returns the recorded-or-inferable relation between s and t.
//
//skylint:hotpath
func (g *Graph) Known(s, t int) Relation {
	rs, rt := g.find(s), g.find(t)
	switch {
	case rs == rt:
		return Equal
	case g.reach[rs].Has(rt):
		return Prefer
	case g.reach[rt].Has(rs):
		return Defer
	default:
		return Unknown
	}
}

// Prefers reports whether s is strictly preferred over t (directly or by
// transitivity).
//
//skylint:hotpath
func (g *Graph) Prefers(s, t int) bool {
	rs, rt := g.find(s), g.find(t)
	return rs != rt && g.reach[rs].Has(rt)
}

// WeaklyPrefers reports s ⪯ t: s strictly preferred over t, or equal.
//
//skylint:hotpath
func (g *Graph) WeaklyPrefers(s, t int) bool {
	rs, rt := g.find(s), g.find(t)
	return rs == rt || g.reach[rs].Has(rt)
}

// Comparable reports whether any relation between s and t is known.
func (g *Graph) Comparable(s, t int) bool { return g.Known(s, t) != Unknown }

// AddPrefer records the crowd answer "s is preferred over t". It returns
// false when the answer contradicts the current graph (t already preferred
// over s); the contradiction is counted and the graph is unchanged. Adding
// an already-known preference is a no-op returning true.
//
//skylint:hotpath
func (g *Graph) AddPrefer(s, t int) bool {
	u, v := g.find(s), g.find(t)
	if u == v || g.reach[v].Has(u) {
		g.contradictions++
		return false
	}
	if g.reach[u].Has(v) {
		return true // already known
	}
	g.edges++
	g.link(u, v)
	// v and its descendants become reachable from u and every ancestor of
	// u. A class that already reaches v is skipped with its ancestors.
	down := g.reach[v]
	g.stack[0] = int32(u)
	for sp := 1; sp > 0; {
		sp--
		c := int(g.stack[sp])
		if row := g.reach[c]; !row.Has(v) {
			row.OrPlus(down, v)
			sp = g.pushPreds(c, sp)
		}
	}
	return true
}

// AddEqual records the crowd answer "s and t are equally preferred",
// merging their equivalence classes. It returns false (counting a
// contradiction, graph unchanged) when a strict preference between the two
// is already known.
//
//skylint:hotpath
func (g *Graph) AddEqual(s, t int) bool {
	u, v := g.find(s), g.find(t)
	if u == v {
		return true
	}
	if g.reach[u].Has(v) || g.reach[v].Has(u) {
		g.contradictions++
		return false
	}
	g.unions++
	// Union by rank; r survives, l is absorbed.
	r, l := u, v
	if g.rank[r] < g.rank[l] {
		r, l = l, r
	}
	if g.rank[r] == g.rank[l] {
		g.rank[r]++
	}
	g.parent[l] = r
	g.reach[r].Or(g.reach[l])
	g.splice(r, l)

	// Every strict ancestor of the merged class gains its closure and the
	// surviving representative's bit. One that already reaches both u and
	// v holds the merged closure, as do its ancestors; setting both bits
	// on the others marks them visited.
	merged := g.reach[r]
	sp := g.pushPreds(r, 0)
	for sp > 0 {
		sp--
		c := int(g.stack[sp])
		if row := g.reach[c]; !row.Has(u) || !row.Has(v) {
			row.OrPlus(merged, r)
			row.Add(l)
			sp = g.pushPreds(c, sp)
		}
	}
	return true
}

// link records the accepted edge u → v on v's predecessor list, growing
// the walk stack with the arena.
func (g *Graph) link(u, v int) {
	e := int32(len(g.preds))
	//skylint:alloc-ok amortized doubling of the edge arena; Reset keeps its capacity
	g.preds = append(g.preds, pred{from: int32(u), next: g.head[v]})
	if len(g.stack) <= len(g.preds) {
		g.stack = make([]int32, cap(g.preds)+1)
	}
	if g.head[v] < 0 {
		g.tail[v] = e
	}
	g.head[v] = e
}

// splice appends the absorbed class l's predecessor list to r's.
func (g *Graph) splice(r, l int) {
	switch {
	case g.head[l] < 0:
		return
	case g.head[r] < 0:
		g.head[r] = g.head[l]
	default:
		g.preds[g.tail[r]].next = g.head[l]
	}
	g.tail[r] = g.tail[l]
}

// pushPreds pushes the current class of every predecessor of c onto the
// walk stack above sp and returns the new stack height.
func (g *Graph) pushPreds(c, sp int) int {
	for e := g.head[c]; e >= 0; e = g.preds[e].next {
		g.stack[sp] = int32(g.find(int(g.preds[e].from)))
		sp++
	}
	return sp
}

// Edges returns the number of accepted strict-preference insertions.
func (g *Graph) Edges() int { return g.edges }

// Unions returns the number of accepted equality insertions.
func (g *Graph) Unions() int { return g.unions }

// Contradictions returns the number of dropped conflicting answers.
func (g *Graph) Contradictions() int { return g.contradictions }

// PreferredSet returns the bit set of representatives strictly less
// preferred than s. The result aliases internal storage and must not be
// modified; bits are representative-canonical.
func (g *Graph) PreferredSet(s int) bitset.Set { return g.reach[g.find(s)] }
