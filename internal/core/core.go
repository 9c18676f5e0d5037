// Package core implements the paper's crowd-enabled skyline algorithms:
//
//   - CrowdSky (Algorithm 1): the serial cost-minimizing algorithm with the
//     dominating-set question generation and the three pruning methods P1
//     (early pruning of complete non-skyline tuples, Section 3.2), P2
//     (transitive reduction of dominating sets in AC, Section 3.3) and P3
//     (probing dominating sets, Section 3.4), each independently
//     toggleable for the ablations of Figures 6-7.
//   - ParallelDSet (Section 4.1): latency reduction by partitioning on
//     dominating-set sizes and disjointness.
//   - ParallelSL (Algorithm 2, Section 4.2): latency reduction by skyline
//     layers and immediate-dominator dependencies.
//   - Baseline (Section 6.1): crowd-powered tournament sort over the crowd
//     attributes followed by a machine skyline.
//   - Unary (Section 6.1, Figure 11): the quantitative-question comparator
//     simulating Lofi et al. [12].
//
// All algorithms exchange questions with a crowd.Platform and never touch
// the latent attribute values.
package core

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/prefgraph"
	"crowdsky/internal/skyline"
	"crowdsky/internal/telemetry"
	"crowdsky/internal/voting"
)

// Options configures a crowd-enabled skyline run.
type Options struct {
	// P1 enables early pruning for non-skyline tuples in A (Section 3.2):
	// tuples are evaluated in ascending |DS(t)| order and complete
	// non-skyline tuples are removed from pending dominating sets.
	P1 bool
	// P2 enables pruning non-skyline tuples in AC (Section 3.3): DS(t) is
	// reduced to SKY_AC(DS(t)) using the transitivity recorded in the
	// preference tree.
	P2 bool
	// P3 enables probing dominating sets (Section 3.4): pair-wise
	// questions inside DS(t), greedily ordered by descending freq(u,v),
	// shrink the dominating set before Q(t) is generated.
	P3 bool
	// Voting decides the number of workers per question from the
	// question's importance. Nil defaults to a single worker, which is the
	// perfect-crowd setting of Sections 3-4.
	Voting voting.Policy
	// RoundRobinAC enables the round-robin strategy for multiple crowd
	// attributes that Section 6.1 mentions but leaves unevaluated: the
	// attributes of a pair are asked one at a time, and the remaining
	// attributes are skipped as soon as the pair's outcome is decided
	// (the candidate dominator lost an attribute, or a probing pair is
	// already incomparable). With |AC| = 1 it has no effect.
	RoundRobinAC bool
	// ProbeOrder selects how P3's probing questions are ordered. The
	// paper is ambiguous: Algorithm 1 line 11 sorts by ascending
	// freq(u,v) while the Section 3.4 prose picks the highest frequency
	// first. The default follows the prose (descending);
	// BenchmarkAblationProbeOrder measures the difference.
	ProbeOrder ProbeOrder
	// MaxQuestions, when positive, caps the number of crowd questions
	// (the fixed-budget setting of Lofi et al. [12]). When the budget
	// runs out the algorithm stops asking and reads out optimistically:
	// every tuple not yet proven dominated is reported in the skyline,
	// and Result.Truncated is set.
	MaxQuestions int
	// Tracer receives structured trace events (round boundaries, P1/P2/P3
	// prunings, vote escalations, budget truncation, index builds). Nil
	// disables tracing at the cost of one pointer comparison per potential
	// event.
	Tracer telemetry.Tracer
	// Index, when non-nil, is a prebuilt dominance index over the run's
	// dataset (skyline.NewIndex). Callers running several configurations
	// over the same dataset — the experiment sweeps, the differential
	// oracle — share one index instead of paying the quadratic machine
	// part per run. It is adopted only when it matches the dataset and the
	// degenerate-case preprocessing removed nothing; otherwise the session
	// builds its own restricted index.
	Index *skyline.Index
	// Context, when non-nil, is the run's base context: it is forwarded to
	// context-aware platforms (crowd.ContextPlatform) on every round for
	// cancellation, and it parents the run's span tree (an enclosing span
	// placed with telemetry.ContextWithSpan makes the run a child span).
	Context context.Context
}

// ProbeOrder selects the ordering of P3's probing questions.
type ProbeOrder int

// Probe orderings.
const (
	// FreqDescending asks the highest-frequency (most pruning power) pair
	// first — the Section 3.4 prose reading, and the default.
	FreqDescending ProbeOrder = iota
	// FreqAscending follows the letter of Algorithm 1 line 11.
	FreqAscending
	// PairOrder keeps the generation order (no frequency sorting).
	PairOrder
)

// AllPruning returns the full CrowdSky configuration (P1+P2+P3).
func AllPruning() Options { return Options{P1: true, P2: true, P3: true} }

// Result is the outcome of a crowd-enabled skyline run.
type Result struct {
	// Skyline lists the indices of the crowdsourced skyline tuples in
	// ascending order.
	Skyline []int
	// Questions is the total number of crowd questions asked (with
	// |AC| = m crowd attributes, one pair comparison counts m questions,
	// following the paper's accounting in Figures 6c/7c).
	Questions int
	// Rounds is the number of crowd rounds used (the latency metric).
	Rounds int
	// WorkerAnswers is the total number of individual worker judgments.
	WorkerAnswers int
	// Cost is the monetary cost in dollars under the paper's AMT model
	// (Section 6.2) with the default reward.
	Cost float64
	// Contradictions counts crowd answers that conflicted with the
	// preference tree and were dropped (only nonzero with noisy crowds).
	Contradictions int
	// Truncated reports that Options.MaxQuestions exhausted the budget
	// before every tuple was complete; the skyline is then the optimistic
	// readout (tuples not yet proven dominated).
	Truncated bool
}

// session carries the machine-part state shared by every algorithm: the
// dataset, the crowd platform, one preference graph per crowd attribute,
// the voting policy, and the co-domination frequency counter.
type session struct {
	d      *dataset.Dataset
	pf     crowd.Platform
	graphs []*prefgraph.Graph
	policy voting.Policy
	fc     *skyline.FreqCounter
	// ix is the dominance index of the run, built (or adopted from
	// sharedIx) by prepMachine after the degenerate-case preprocessing.
	ix *skyline.Index
	// sharedIx is the caller-provided index from Options.Index.
	sharedIx *skyline.Index

	// roundRobin enables one-attribute-at-a-time questioning for pairs
	// (Options.RoundRobinAC).
	roundRobin bool
	// maxQuestions caps the crowd budget; 0 means unlimited.
	maxQuestions int
	// exhausted is latched once the budget ran out.
	exhausted bool
	// progressTotal is the estimated total question count, used to feed
	// progress-aware voting policies (voting.ProgressPolicy); 0 disables
	// progress tracking.
	progressTotal int
	// trace receives structured events; nil means tracing is disabled and
	// every emission site reduces to a pointer comparison.
	trace telemetry.Tracer
	// ctx is the caller-provided base context (never nil after
	// newSession); runCtx carries the run span once emitRunStart started
	// it, and rounds/sub-spans parent under it.
	ctx     context.Context
	runCtx  context.Context
	runSpan *telemetry.Span

	// useT selects whether completeness decisions may use transitive
	// inference through the preference tree. The paper introduces the tree
	// with pruning P2 (Section 3.3), so runs without P2/P3 decide from
	// direct answers only.
	useT bool

	// direct records the raw aggregated answer of every asked question,
	// keyed by (min tuple, max tuple, attribute) with the preference
	// normalized to that orientation. Pruning variants that do not use
	// the preference tree (DSet and P1 alone — the tree is introduced
	// with P2, Section 3.3) decide completeness from these direct answers
	// only, reproducing the paper's stage decomposition in Figures 6-7.
	direct map[directKey]crowd.Preference

	alive []bool // false for tuples removed by degenerate-case preprocessing
	twin  []int  // twin[i] = j when i was removed as an exact duplicate of j in AK and equal in AC; -1 otherwise
}

// directKey identifies an asked question with a normalized orientation
// (A < B).
type directKey struct{ a, b, attr int }

// directPool recycles direct-answer maps across sessions. A run's map
// grows to one entry per asked question; serving many runs over the same
// deployment (the experiment sweeps, the crowdserve loop) would otherwise
// reallocate and regrow that table per run. Maps enter the pool cleared.
var directPool = sync.Pool{
	New: func() any { return make(map[directKey]crowd.Preference, 256) },
}

// release returns the session's pooled resources; call it once the
// session will answer no further queries. Reads after release degrade
// gracefully (a nil map reads as empty) but are a bug.
func (ss *session) release() {
	if ss.direct != nil {
		clear(ss.direct)
		directPool.Put(ss.direct)
		ss.direct = nil
	}
}

func newSession(d *dataset.Dataset, pf crowd.Platform, opts Options) *session {
	policy := opts.Voting
	if policy == nil {
		policy = voting.Static{Omega: 1}
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	s := &session{
		d:            d,
		pf:           pf,
		policy:       policy,
		roundRobin:   opts.RoundRobinAC,
		maxQuestions: opts.MaxQuestions,
		useT:         opts.P2 || opts.P3,
		trace:        opts.Tracer,
		ctx:          ctx,
		sharedIx:     opts.Index,
		direct:       directPool.Get().(map[directKey]crowd.Preference),
		alive:        make([]bool, d.N()),
		twin:         make([]int, d.N()),
	}
	for i := range s.alive {
		s.alive[i] = true
		s.twin[i] = -1
	}
	s.graphs = make([]*prefgraph.Graph, d.CrowdDims())
	for j := range s.graphs {
		s.graphs[j] = prefgraph.New(d.N())
	}
	s.seedStoredValues()
	return s
}

// emitRunStart emits the run_start trace event for the named algorithm
// and opens the run's root span; every round and machine-phase span
// parents under it, and finish closes it.
func (ss *session) emitRunStart(algo string) {
	if ss.trace != nil {
		ss.trace.Emit(telemetry.RunStart(algo, ss.d.N(), ss.d.CrowdDims()))
	}
	ss.runCtx, ss.runSpan = telemetry.StartSpan(ss.ctx, ss.trace, "run")
	ss.runSpan.SetAttr("algo", algo)
	ss.runSpan.SetAttr("n", strconv.Itoa(ss.d.N()))
}

// runContext returns the context rounds should run under: the run-span
// context once the run started, else the caller's base context.
func (ss *session) runContext() context.Context {
	if ss.runCtx != nil {
		return ss.runCtx
	}
	return ss.ctx
}

// seedStoredValues pre-loads the preference graphs with the relations
// implied by stored crowd-attribute values (the partial-missing scenario
// of Example 1): per attribute, the stored tuples are sorted by value and
// chained with preference/equality edges, so transitivity makes every
// stored-stored relation available without a single crowd question.
func (ss *session) seedStoredValues() {
	d := ss.d
	for j := range ss.graphs {
		var stored []int
		for t := 0; t < d.N(); t++ {
			if d.CrowdValueKnown(t, j) {
				stored = append(stored, t)
			}
		}
		if len(stored) < 2 {
			continue
		}
		sort.SliceStable(stored, func(a, b int) bool {
			return d.Latent(stored[a], j) < d.Latent(stored[b], j)
		})
		g := ss.graphs[j]
		for k := 1; k < len(stored); k++ {
			prev, cur := stored[k-1], stored[k]
			if skyline.EqEps(d.Latent(prev, j), d.Latent(cur, j)) {
				g.AddEqual(prev, cur)
			} else {
				g.AddPrefer(prev, cur)
			}
		}
	}
}

// sortByDSSize orders tuples by ascending dominating-set size (stable), the
// P1 evaluation order of Lemma 3.
func sortByDSSize(order []int, sets [][]int) {
	sort.SliceStable(order, func(x, y int) bool {
		return len(sets[order[x]]) < len(sets[order[y]])
	})
}

// pair is an unordered tuple pair packed into one word (min in the high
// half, so the canonical form a() < b() is preserved). A single integer
// key keeps the per-round dedup maps and probe slices allocation-light;
// the zero pair stands in where the old struct used pair{}.
type pair uint64

func makePair(a, b int) pair {
	if a > b {
		a, b = b, a
	}
	return pair(uint64(a)<<32 | uint64(b))
}

// a returns the smaller tuple index of the pair.
func (p pair) a() int { return int(p >> 32) }

// b returns the larger tuple index of the pair.
func (p pair) b() int { return int(p & 0xffffffff) }

// pairKnown reports whether the relation between s and t is known on every
// crowd attribute, under the current inference mode (see useT).
//
//skylint:hotpath
func (ss *session) pairKnown(s, t int) bool {
	for j := range ss.graphs {
		if !ss.attrKnown(s, t, j) {
			return false
		}
	}
	return true
}

// attrKnown reports whether the relation of (s, t) on crowd attribute j is
// available to the current pruning configuration: from stored crowd values
// (the partial-missing scenario), via the preference tree when useT, or
// via a direct answer otherwise.
//
//skylint:hotpath
func (ss *session) attrKnown(s, t, j int) bool {
	if _, ok := ss.seededAnswer(s, t, j); ok {
		return true
	}
	if ss.useT {
		return ss.graphs[j].Comparable(s, t)
	}
	_, ok := ss.directAnswer(s, t, j)
	return ok
}

// seededAnswer resolves (s, t) on crowd attribute j from stored values
// when both sides are stored (Example 1's partial-missing case): such
// pairs cost no crowd questions. Oriented so First means s is preferred.
func (ss *session) seededAnswer(s, t, j int) (crowd.Preference, bool) {
	if !ss.d.CrowdValueKnown(s, j) || !ss.d.CrowdValueKnown(t, j) {
		return 0, false
	}
	sv, tv := ss.d.Latent(s, j), ss.d.Latent(t, j)
	switch {
	case sv < tv:
		return crowd.First, true
	case tv < sv:
		return crowd.Second, true
	default:
		return crowd.Equal, true
	}
}

// unknownAttrs appends, for the pair (s,t), one Request per crowd attribute
// whose relation is still unknown, and returns the extended slice. backup
// is the number of further dominators pending against the same target
// tuple (0 when this is the last check or the question is a probe). Under
// the round-robin strategy only the first unknown attribute is asked; the
// caller re-polls after the answer lands and may find the pair decided.
func (ss *session) unknownAttrs(s, t, backup int, reqs []crowd.Request) []crowd.Request {
	workers := ss.workersFor(s, t, backup)
	for j := range ss.graphs {
		if !ss.attrKnown(s, t, j) {
			reqs = append(reqs, crowd.Request{Q: crowd.Question{A: s, B: t, Attr: j}, Workers: workers})
			if ss.roundRobin {
				break
			}
		}
	}
	return reqs
}

// workersFor returns the worker assignment for the pair (s, t): the
// voting policy's decision from the question's importance, plus run
// progress and per-question context when the policy understands them.
func (ss *session) workersFor(s, t, backup int) int {
	f := ss.freq(s, t)
	prog := 1.0
	if ss.progressTotal > 0 {
		prog = float64(ss.pf.Stats().Questions()) / float64(ss.progressTotal)
		if prog > 1 {
			prog = 1
		}
	}
	var workers int
	if cp, ok := ss.policy.(voting.ContextPolicy); ok {
		workers = cp.WorkersFor(voting.Context{Progress: prog, Freq: f, Backup: backup})
	} else if pp, ok := ss.policy.(voting.ProgressPolicy); ok && ss.progressTotal > 0 {
		workers = pp.WorkersAt(prog, f)
	} else {
		workers = ss.policy.Workers(f)
	}
	if ss.trace != nil {
		if base := ss.policy.Workers(0); workers > base {
			ss.trace.Emit(telemetry.VoteEscalation(s, t, workers, base))
		}
	}
	return workers
}

// estimateTotalQuestions predicts how many questions the run will ask, for
// progress-aware voting. With the preference tree enabled (P2/P3), the
// transitive reductions leave roughly 1.3 questions per incomplete tuple
// empirically; without it, the expected cost of a tuple is the harmonic
// cost of scanning its dominating set until the first killer. The estimate
// only anchors the progress fraction; accuracy within tens of percent keeps
// the annealed policy budget-neutral.
func (ss *session) estimateTotalQuestions(sets [][]int) int {
	total := 0.0
	for t, ds := range sets {
		if !ss.alive[t] || len(ds) == 0 {
			continue
		}
		if ss.useT {
			total += 1.3
		} else {
			total += 1 + math.Log(float64(len(ds)))
		}
	}
	return int(total) * len(ss.graphs)
}

// budgetLeft reports whether more questions may be asked; it latches
// exhaustion once the cap is hit.
func (ss *session) budgetLeft() bool {
	if ss.maxQuestions <= 0 {
		return true
	}
	if asked := ss.pf.Stats().Questions(); asked >= ss.maxQuestions && !ss.exhausted {
		ss.exhausted = true
		if ss.trace != nil {
			ss.trace.Emit(telemetry.BudgetTruncated(asked, ss.maxQuestions))
		}
	}
	return !ss.exhausted
}

// attrStrictlyDefers reports that t is known strictly preferred over s on
// crowd attribute j, under the current inference mode.
func (ss *session) attrStrictlyDefers(s, t, j int) bool {
	if ss.useT {
		return ss.graphs[j].Known(s, t) == prefgraph.Defer
	}
	pref, ok := ss.directAnswer(s, t, j)
	return ok && pref == crowd.Second
}

// cannotWeaklyPrefer reports that s ⪯AC t is already impossible: some
// crowd attribute is known to strictly prefer t. Used by the round-robin
// strategy to skip a pair's remaining attributes.
func (ss *session) cannotWeaklyPrefer(s, t int) bool {
	for j := range ss.graphs {
		if ss.attrStrictlyDefers(s, t, j) {
			return true
		}
	}
	return false
}

// pairIncomparable reports that s and t are already known strictly
// preferred on one attribute each in opposite directions, so neither can
// AC-dominate the other regardless of the unanswered attributes.
func (ss *session) pairIncomparable(s, t int) bool {
	return ss.cannotWeaklyPrefer(s, t) && ss.cannotWeaklyPrefer(t, s)
}

// freq returns freq(s,t); 0 when the frequency counter is not initialized
// (it is lazily built on first use by algorithms that need it).
func (ss *session) freq(s, t int) int {
	if ss.fc == nil {
		return 0
	}
	return ss.fc.Freq(s, t)
}

// apply folds a round of crowd answers into the preference graphs and the
// direct-answer record.
//
//skylint:hotpath
func (ss *session) apply(answers []crowd.Answer) {
	for _, a := range answers {
		g := ss.graphs[a.Q.Attr]
		switch a.Pref {
		case crowd.First:
			g.AddPrefer(a.Q.A, a.Q.B)
		case crowd.Second:
			g.AddPrefer(a.Q.B, a.Q.A)
		case crowd.Equal:
			g.AddEqual(a.Q.A, a.Q.B)
		}
		key := directKey{a.Q.A, a.Q.B, a.Q.Attr}
		pref := a.Pref
		if key.a > key.b {
			key.a, key.b = key.b, key.a
			pref = pref.Flip()
		}
		ss.direct[key] = pref
	}
}

// directAnswer returns the recorded raw answer for (s, t) on attr, oriented
// so that First means s is preferred. Stored-value (seeded) relations
// count as direct answers: they are certain and free.
//
//skylint:hotpath
func (ss *session) directAnswer(s, t, attr int) (crowd.Preference, bool) {
	if pref, ok := ss.seededAnswer(s, t, attr); ok {
		return pref, true
	}
	key := directKey{s, t, attr}
	flip := false
	if key.a > key.b {
		key.a, key.b = key.b, key.a
		flip = true
	}
	pref, ok := ss.direct[key]
	if !ok {
		return 0, false
	}
	if flip {
		pref = pref.Flip()
	}
	return pref, true
}

// pairKnownDirect reports whether (s, t) was directly asked on every crowd
// attribute.
func (ss *session) pairKnownDirect(s, t int) bool {
	for j := range ss.graphs {
		if _, ok := ss.directAnswer(s, t, j); !ok {
			return false
		}
	}
	return true
}

// directWeaklyPrefers reports s ⪯AC t using direct answers only: every
// crowd attribute was asked and answered "s preferred" or "equal".
func (ss *session) directWeaklyPrefers(s, t int) bool {
	for j := range ss.graphs {
		pref, ok := ss.directAnswer(s, t, j)
		if !ok || pref == crowd.Second {
			return false
		}
	}
	return true
}

// askPairNow asks the unknown crowd attributes of the pair (s, t) as one
// round and applies the answers (one attribute per round under
// round-robin). It is the serial building block; parallel algorithms batch
// unknownAttrs requests themselves. It respects the question budget.
func (ss *session) askPairNow(s, t int) {
	if !ss.budgetLeft() {
		return
	}
	reqs := ss.unknownAttrs(s, t, 0, nil)
	if len(reqs) == 0 {
		return
	}
	if ss.maxQuestions > 0 {
		if room := ss.maxQuestions - ss.pf.Stats().Questions(); len(reqs) > room {
			reqs = reqs[:room]
		}
	}
	ss.doAsk(reqs)
}

// askRound asks one parallel round of requests, truncating to the
// remaining budget.
func (ss *session) askRound(reqs []crowd.Request) {
	if len(reqs) == 0 || !ss.budgetLeft() {
		return
	}
	if ss.maxQuestions > 0 {
		if room := ss.maxQuestions - ss.pf.Stats().Questions(); len(reqs) > room {
			reqs = reqs[:room]
		}
	}
	ss.doAsk(reqs)
}

// doAsk submits one round to the platform and applies the answers,
// emitting round_start/round_end trace events around the (potentially
// slow, potentially real-money) platform call.
func (ss *session) doAsk(reqs []crowd.Request) {
	if ss.trace == nil {
		// Tracing off, but the caller's context still reaches the
		// platform for cancellation.
		ss.apply(crowd.AskWithContext(ss.runContext(), ss.pf, reqs))
		return
	}
	round := ss.pf.Stats().Rounds() + 1
	ss.trace.Emit(telemetry.RoundStart(round, len(reqs)))
	rctx, span := telemetry.StartSpan(ss.runContext(), ss.trace, "round")
	span.SetAttr("round", strconv.Itoa(round))
	span.SetAttr("questions", strconv.Itoa(len(reqs)))
	start := time.Now()
	answers := crowd.AskWithContext(rctx, ss.pf, reqs)
	span.End()
	ss.trace.Emit(telemetry.RoundEnd(round, len(reqs), time.Since(start)))
	ss.apply(answers)
}

// acWeaklyPrefers reports whether s ⪯AC t is known: on every crowd
// attribute, s is preferred over or equal to t. Combined with s ≺AK t this
// establishes s ≺A t. Under useT the check includes transitive inference;
// otherwise only direct answers count.
func (ss *session) acWeaklyPrefers(s, t int) bool {
	if !ss.useT {
		return ss.directWeaklyPrefers(s, t)
	}
	for _, g := range ss.graphs {
		if !g.WeaklyPrefers(s, t) {
			return false
		}
	}
	return true
}

// acDominates reports whether s ≺AC t is known: weak preference on every
// crowd attribute and strict preference on at least one.
func (ss *session) acDominates(s, t int) bool {
	strict := false
	for _, g := range ss.graphs {
		switch g.Known(s, t) {
		case prefgraph.Prefer:
			strict = true
		case prefgraph.Equal:
			// weak, not strict
		default:
			return false
		}
	}
	return strict
}

// acEqual reports whether s and t are known equal on every crowd attribute.
func (ss *session) acEqual(s, t int) bool {
	for _, g := range ss.graphs {
		if g.Known(s, t) != prefgraph.Equal {
			return false
		}
	}
	return true
}

// contradictions sums dropped conflicting answers across the per-attribute
// preference graphs.
func (ss *session) contradictions() int {
	total := 0
	for _, g := range ss.graphs {
		total += g.Contradictions()
	}
	return total
}

// preprocessDegenerate implements Algorithm 1, lines 1-3: for tuple pairs
// with identical values on every known attribute, the crowd decides the AC
// preference and the less preferred tuple is removed from R. A pair that
// is equal in AC as well cannot dominate either way; the later tuple is
// folded into the earlier one as a twin and re-added to the skyline at
// readout. Each compared pair is one round, as in the serial algorithm.
//
// Candidates come from a sort on known attribute 0: an Eps-equal partner
// of i lies in the window of ±2·Eps (widened against rounding) around
// i's value, and EqualKnown still decides every pair — Eps-equality is
// not transitive, so grouping equal rows would not be equivalent. The
// window's members are visited in ascending j, the order of the full
// pair sweep, so questions and rounds are unchanged.
func (ss *session) preprocessDegenerate() {
	d := ss.d
	n := d.N()
	hasKnown := d.KnownDims() > 0
	key := func(i int) float64 {
		if !hasKnown {
			return 0 // no known attribute: every pair is AK-identical
		}
		return d.Known(i, 0)
	}
	// NaN equals nothing under EqEps and has no place in a sort order;
	// such tuples are left out, and their own window search finds nothing.
	byKey := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !math.IsNaN(key(i)) {
			byKey = append(byKey, i)
		}
	}
	sort.Slice(byKey, func(a, b int) bool { return key(byKey[a]) < key(byKey[b]) })
	var cand []int
	for i := 0; i < n; i++ {
		if !ss.alive[i] {
			continue
		}
		v := key(i)
		lo := sort.Search(len(byKey), func(k int) bool { return key(byKey[k]) >= v-2*skyline.Eps })
		cand = cand[:0]
		for k := lo; k < len(byKey) && key(byKey[k]) <= v+2*skyline.Eps; k++ {
			if j := byKey[k]; j > i {
				cand = append(cand, j)
			}
		}
		sort.Ints(cand)
		for _, j := range cand {
			if !ss.alive[j] || !skyline.EqualKnown(d, i, j) {
				continue
			}
			ss.askPairNow(i, j)
			switch {
			case ss.acDominates(i, j):
				ss.alive[j] = false
			case ss.acDominates(j, i):
				ss.alive[i] = false
			case ss.acEqual(i, j):
				// Equal on all attributes: identical tuples share fate, so
				// fold j into i and re-add it at readout.
				ss.alive[j] = false
				ss.twin[j] = i
			default:
				// Incomparable in AC: neither can ever dominate the other
				// (no strict preference exists in AK), so both stay; the
				// pruning lemmas are unaffected because neither tuple can
				// appear in a dominating set of the other.
			}
			if !ss.alive[i] {
				break
			}
		}
	}
}

// finish assembles the Result from the session state and the skyline
// membership flags (indexed by tuple; only alive tuples are consulted).
// Twins of skyline tuples are re-added.
func (ss *session) finish(inSkyline []bool) *Result {
	var sky []int
	for t := 0; t < ss.d.N(); t++ {
		if ss.alive[t] && inSkyline[t] {
			sky = append(sky, t)
		} else if tw := ss.twin[t]; tw >= 0 && inSkyline[tw] {
			sky = append(sky, t)
		}
	}
	sort.Ints(sky)
	st := ss.pf.Stats().Snapshot()
	// The root span closes before run_end so the trace stays framed by
	// run_start…run_end, the invariant downstream consumers rely on.
	ss.runSpan.SetAttr("questions", strconv.Itoa(st.Questions))
	ss.runSpan.SetAttr("rounds", strconv.Itoa(st.Rounds))
	ss.runSpan.SetAttr("skyline", strconv.Itoa(len(sky)))
	ss.runSpan.End()
	if ss.trace != nil {
		ss.trace.Emit(telemetry.RunEnd(st.Questions, st.Rounds, len(sky)))
	}
	return &Result{
		Skyline:        sky,
		Questions:      st.Questions,
		Rounds:         st.Rounds,
		WorkerAnswers:  st.WorkerAnswers,
		Cost:           ss.pf.Stats().Cost(crowd.DefaultReward),
		Contradictions: ss.contradictions(),
		Truncated:      ss.exhausted,
	}
}

// prepMachine pays the machine part of a run in one place, after the
// degenerate-case preprocessing fixed the alive set: it builds (or adopts
// from Options.Index) the dominance index, derives the alive-restricted
// dominating sets and the frequency counter from its bitmap, seeds the
// progress estimate, and pre-sizes the direct-answer map for the expected
// question volume. Every algorithm calls it exactly once; nothing
// downstream runs another pair-wise dominance test.
func (ss *session) prepMachine() [][]int {
	allAlive := true
	for t := 0; t < ss.d.N(); t++ {
		if !ss.alive[t] {
			allAlive = false
			break
		}
	}
	if allAlive && ss.sharedIx != nil && ss.sharedIx.Matches(ss.d) {
		ss.ix = ss.sharedIx
	} else {
		var mask []bool
		if !allAlive {
			mask = ss.alive
		}
		_, ispan := telemetry.StartSpan(ss.runContext(), ss.trace, "index_build")
		ss.ix = skyline.NewIndexAlive(ss.d, mask)
		if ss.trace != nil {
			st := ss.ix.Stats()
			ss.trace.Emit(telemetry.IndexBuild(st.N, st.Pairs, st.BitmapBytes, st.BuildDuration))
			ispan.SetAttr("pairs", strconv.Itoa(st.Pairs))
		}
		ispan.End()
	}
	sets := ss.ix.DominatingSets()
	ss.fc = ss.ix.FreqCounter()
	ss.progressTotal = ss.estimateTotalQuestions(sets)
	ss.presizeDirect()
	return sets
}

// presizeDirect rebuilds the direct-answer map with room for the
// estimated question volume, so the apply hot path does not rehash as
// answers accumulate. The few entries recorded by the degenerate-case
// preprocessing are carried over; the undersized map goes back to the
// pool (its buckets stay at whatever size they grew to, so a recycled
// map often makes this rebuild a no-op for the next run).
func (ss *session) presizeDirect() {
	if ss.progressTotal <= len(ss.direct) {
		return
	}
	m := make(map[directKey]crowd.Preference, ss.progressTotal)
	for k, v := range ss.direct {
		m[k] = v
	}
	clear(ss.direct)
	directPool.Put(ss.direct)
	ss.direct = m
}
