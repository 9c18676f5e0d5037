package core

import (
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// TupleProbability is a tuple's estimated chance of belonging to the final
// skyline, given the answers collected so far.
type TupleProbability struct {
	Tuple       int
	Probability float64
	// Survived is how many dominating-set members the tuple is already
	// known to beat; Unresolved is how many are still undecided.
	Survived, Unresolved int
}

// ProbabilisticResult extends Result with per-tuple skyline probabilities,
// the readout of the fixed-budget setting of Lofi et al. [12]: instead of
// the optimistic yes/no of Result.Skyline, every tuple carries its chance
// of surviving the questions the budget did not cover.
type ProbabilisticResult struct {
	Result
	// Probabilities has one entry per alive tuple, ascending by tuple
	// index. Complete tuples carry probability exactly 0 or 1.
	Probabilities []TupleProbability
}

// CrowdSkyProbabilistic runs the serial CrowdSky algorithm (typically with
// Options.MaxQuestions set) and estimates each tuple's skyline probability
// under a rank model: if a tuple is already known more preferred than m of
// its remaining dominating-set members and k members are unresolved, the
// chance that it is the most preferred of the whole group is
// (m+1)/(m+k+1) — the probability that a uniformly ranked item that is
// already the minimum of m+1 items stays minimal when k more items join.
// With several crowd attributes the per-attribute probabilities multiply
// (independence across attributes, matching the synthetic generator).
//
// Complete tuples get probability 1 (skyline) or 0 (dominated); with an
// unlimited budget every tuple is complete and the probabilities collapse
// to the exact skyline indicator.
func CrowdSkyProbabilistic(d *dataset.Dataset, pf crowd.Platform, opts Options) *ProbabilisticResult {
	ss := newSession(d, pf, opts)
	defer ss.release()
	ss.emitRunStart("crowdsky-probabilistic")
	ss.preprocessDegenerate()
	sets := ss.prepMachine()

	n := d.N()
	inSkyline := make([]bool, n)
	nonSkyline := make([]bool, n)
	evals := make(map[int]*tupleEval, n)
	var order []int
	for t := 0; t < n; t++ {
		if !ss.alive[t] {
			continue
		}
		if len(sets[t]) == 0 {
			inSkyline[t] = true
			continue
		}
		order = append(order, t)
	}
	if opts.P1 {
		sortByDSSize(order, sets)
	}
	for _, t := range order {
		te := newTupleEval(ss, t, sets[t], opts, nonSkyline)
		evals[t] = te
		for {
			p, ok := te.next(ss)
			if !ok || !ss.budgetLeft() {
				break
			}
			ss.askPairNow(p.a(), p.b())
		}
		if te.killed {
			nonSkyline[t] = true
		} else {
			inSkyline[t] = true
		}
	}
	base := ss.finish(inSkyline)

	out := &ProbabilisticResult{Result: *base}
	for t := 0; t < n; t++ {
		if !ss.alive[t] {
			continue
		}
		tp := TupleProbability{Tuple: t}
		switch {
		case len(sets[t]) == 0:
			tp.Probability = 1 // SKY_AK: complete skyline tuple
		case nonSkyline[t]:
			tp.Probability = 0
		default:
			te := evals[t]
			survived, unresolved := te.tally(ss)
			tp.Survived, tp.Unresolved = survived, unresolved
			tp.Probability = float64(survived+1) / float64(survived+unresolved+1)
		}
		out.Probabilities = append(out.Probabilities, tp)
	}
	return out
}

// tally counts, over the remaining dominating-set members, how many the
// tuple has survived and how many are unresolved.
func (te *tupleEval) tally(ss *session) (survived, unresolved int) {
	for _, s := range te.ds {
		if !te.inDS.Has(s) {
			continue
		}
		switch {
		case ss.pairKnown(s, te.t):
			if !ss.acWeaklyPrefers(s, te.t) {
				survived++
			}
		default:
			unresolved++
		}
	}
	return survived, unresolved
}
