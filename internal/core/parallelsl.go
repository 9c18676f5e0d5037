package core

import (
	"fmt"
	"sort"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// ParallelSL runs Algorithm 2: the skyline-layer parallelization of
// Section 4.2. A tuple's question pipeline starts as soon as every tuple
// in its immediate-dominator set c(t) is complete; all active pipelines
// contribute one question per round.
//
// The trigger is tracked without materializing c(t): each tuple keeps a
// countdown of its incomplete dominators, pending[t] = |DS(t)|, and when
// a tuple completes (SL1 = SKY_AK(R) at the start, Algorithm 2 line 4,
// then every retired pipeline) the tuples it dominates count down; a
// tuple reaching zero is ready. "All of DS(t) complete" is the same
// trigger as "all of c(t) complete", by induction over the dominance
// order: c(t) ⊆ DS(t) gives one direction; for the other, every
// s ∈ DS(t) \ c(t) lies in DS(u) for some u ∈ c(t), and u only completed
// after it was activated, i.e. after all of DS(u) completed. Activating
// each settle pass's ready tuples in ascending order reproduces the
// sweep over c(t) exactly, round composition and request order included.
//
// Unlike ParallelDSet, concurrently active tuples may probe overlapping
// dominating sets (dependency C2 is deliberately violated, Section 4.2),
// which can ask a few extra questions in exchange for far fewer rounds;
// the paper measures the overhead at roughly 10%.
func ParallelSL(d *dataset.Dataset, pf crowd.Platform, opts Options) *Result {
	ss := newSession(d, pf, opts)
	defer ss.release()
	ss.emitRunStart("parallel-sl")
	ss.preprocessDegenerate()
	sets := ss.prepMachine()

	n := d.N()
	inSkyline := make([]bool, n)
	nonSkyline := make([]bool, n)
	pending := make([]int, n) // incomplete dominators per tuple
	var ready []int
	complete := func(s int) {
		ss.ix.ForEachDominated(s, func(t int) {
			if pending[t]--; pending[t] == 0 {
				ready = append(ready, t)
			}
		})
	}
	remaining := 0
	for t := 0; t < n; t++ {
		if ss.alive[t] && len(sets[t]) > 0 {
			pending[t] = len(sets[t])
			remaining++
		}
	}
	for t := 0; t < n; t++ {
		if ss.alive[t] && len(sets[t]) == 0 {
			// SL1 = SKY_AK(R): complete skyline tuples from the start
			// (Algorithm 2, line 4).
			inSkyline[t] = true
			complete(t)
		}
	}

	var active []*tupleEval
	for remaining > 0 {
		// Settle: activate every ready tuple, and retire every pipeline
		// that can finish without further crowd input. Activation and
		// zero-cost completion can cascade, so repeat until stable.
		for {
			progress := len(ready) > 0
			sort.Ints(ready)
			for _, t := range ready {
				active = append(active, newTupleEval(ss, t, sets[t], opts, nonSkyline))
			}
			ready = ready[:0]
			keepActive := active[:0]
			for _, te := range active {
				if _, ok := te.next(ss); !ok {
					if te.killed {
						nonSkyline[te.t] = true
					} else {
						inSkyline[te.t] = true
					}
					complete(te.t)
					remaining--
					progress = true
				} else {
					keepActive = append(keepActive, te)
				}
			}
			active = keepActive
			if !progress {
				break
			}
		}
		if !ss.budgetLeft() {
			// Budget exhausted: optimistic readout. Settling left no
			// killed pipeline active, so every alive tuple not proven
			// dominated — active or never activated — is reported.
			for t := range inSkyline {
				inSkyline[t] = ss.alive[t] && !nonSkyline[t]
			}
			break
		}
		if len(active) == 0 {
			if remaining > 0 {
				// Cannot happen: the dominance DAG is acyclic, so some
				// incomplete tuple always has all its dominators complete.
				panic(fmt.Sprintf("core: ParallelSL stalled with %d incomplete tuples", remaining))
			}
			break
		}
		// One round: every active pipeline contributes its pending pair;
		// duplicates across pipelines are asked once.
		var reqs []crowd.Request
		seen := make(map[pair]bool, len(active))
		for _, te := range active {
			p, ok := te.next(ss)
			if !ok {
				continue // completes in the next settle pass
			}
			if !seen[p] {
				seen[p] = true
				reqs = ss.unknownAttrs(p.a(), p.b(), te.pendingBackup, reqs)
			}
		}
		ss.askRound(reqs)
	}
	return ss.finish(inSkyline)
}
