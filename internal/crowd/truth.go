package crowd

import "crowdsky/internal/dataset"

// Truth supplies ground-truth answers for simulated questions. The paper's
// synthetic evaluation derives answers from the latent crowd-attribute
// values (Section 6.1); DatasetTruth implements exactly that.
type Truth interface {
	// Contains reports whether q names two tuples and a crowd attribute
	// the truth knows. Answer is defined only for questions it contains.
	Contains(q Question) bool
	// Answer returns the correct preference for q.
	Answer(q Question) Preference
	// Value returns the latent value of tuple i on crowd attribute j, for
	// unary-question simulation (Section 6.1, the comparison against
	// [12]). Smaller is more preferred.
	Value(i, j int) float64
}

// DatasetTruth answers questions from a dataset's latent crowd-attribute
// values. Two values within Epsilon of each other are reported as equally
// preferred; the default 0 means only exact ties are equal, matching the
// continuous synthetic data where ties have probability zero.
type DatasetTruth struct {
	Data    *dataset.Dataset
	Epsilon float64
}

// Contains implements Truth.
func (t DatasetTruth) Contains(q Question) bool {
	n := t.Data.N()
	return q.A >= 0 && q.A < n && q.B >= 0 && q.B < n && q.Attr >= 0 && q.Attr < t.Data.CrowdDims()
}

// Answer implements Truth.
func (t DatasetTruth) Answer(q Question) Preference {
	a := t.Data.Latent(q.A, q.Attr)
	b := t.Data.Latent(q.B, q.Attr)
	diff := a - b
	switch {
	case diff < -t.Epsilon:
		return First
	case diff > t.Epsilon:
		return Second
	default:
		return Equal
	}
}

// Value implements Truth.
func (t DatasetTruth) Value(i, j int) float64 { return t.Data.Latent(i, j) }
