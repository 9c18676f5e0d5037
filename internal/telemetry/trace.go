package telemetry

import (
	"sync"
	"time"
)

// EventType names a trace event. The set mirrors the paper's accounting:
// rounds (latency), questions (cost), and the three pruning methods whose
// savings Figures 6-7 decompose.
type EventType string

// Trace event types.
const (
	// EventRunStart opens an algorithm run (Algo, N, CrowdDims).
	EventRunStart EventType = "run_start"
	// EventRunEnd closes a run (Questions, Rounds, Skyline).
	EventRunEnd EventType = "run_end"
	// EventRoundStart marks a crowd round being submitted (Round,
	// Questions).
	EventRoundStart EventType = "round_start"
	// EventRoundEnd marks a crowd round's answers arriving (Round,
	// Questions, DurationMS).
	EventRoundEnd EventType = "round_end"
	// EventP1Prune records P1 dropping complete non-skyline tuples from
	// DS(Tuple) at question-generation time (Before, After, Removed;
	// Section 3.2).
	EventP1Prune EventType = "p1_prune"
	// EventP2Reduce records P2 reducing DS(Tuple) to SKY_AC(DS(Tuple)) via
	// the preference tree's transitive closure (Before, After, Removed;
	// Section 3.3).
	EventP2Reduce EventType = "p2_reduce"
	// EventP3Resolve records a P3 probing outcome removing member A from
	// DS(Tuple) (Section 3.4).
	EventP3Resolve EventType = "p3_resolve"
	// EventVoteEscalation records the voting policy assigning more workers
	// than the nominal ω to the pair (A, B) (Workers, Base; Section 5).
	EventVoteEscalation EventType = "vote_escalation"
	// EventBudgetTruncated records the question budget running out
	// (Questions, Budget); the run switches to the optimistic readout.
	EventBudgetTruncated EventType = "budget_truncated"
	// EventIndexBuild records a dominance index build (N, Pairs, Bytes,
	// DurationMS): the one-time machine-part cost a run pays before any
	// crowd question is issued.
	EventIndexBuild EventType = "index_build"
	// EventSpanStart opens a hierarchical span (TraceID, SpanID, ParentID,
	// Name); see span.go.
	EventSpanStart EventType = "span_start"
	// EventSpanEnd closes a span (TraceID, SpanID, Name, DurationMS,
	// Attrs); paired with span_start by SpanID.
	EventSpanEnd EventType = "span_end"
)

// Event is one structured trace event. It is a flat union of the fields
// used by every event type: unused numeric fields are omitted from JSON
// where zero is unambiguous; Tuple, A and B hold -1 when not applicable
// (tuple indices start at 0, so zero cannot mean "unset").
type Event struct {
	Seq  int       `json:"seq,omitempty"`
	Time time.Time `json:"time"`
	Type EventType `json:"type"`

	Algo      string `json:"algo,omitempty"`       // run_start
	N         int    `json:"n,omitempty"`          // run_start: dataset size
	CrowdDims int    `json:"crowd_dims,omitempty"` // run_start

	Round      int     `json:"round,omitempty"`       // 1-based round number
	Questions  int     `json:"questions,omitempty"`   // round size / run total
	DurationMS float64 `json:"duration_ms,omitempty"` // round_end wall time

	Tuple int `json:"tuple"` // tuple under evaluation; -1 when n/a
	A     int `json:"a"`     // pair member / removed DS member; -1 when n/a
	B     int `json:"b"`     // pair member; -1 when n/a

	Before  int `json:"before,omitempty"`  // DS size before pruning
	After   int `json:"after,omitempty"`   // DS size after pruning
	Removed int `json:"removed,omitempty"` // tuples removed by pruning

	Workers int `json:"workers,omitempty"` // vote_escalation: assigned
	Base    int `json:"base,omitempty"`    // vote_escalation: nominal ω
	Budget  int `json:"budget,omitempty"`  // budget_truncated: the cap
	Rounds  int `json:"rounds,omitempty"`  // run_end
	Skyline int `json:"skyline,omitempty"` // run_end: skyline size

	Pairs int   `json:"pairs,omitempty"` // index_build: dominance pairs
	Bytes int64 `json:"bytes,omitempty"` // index_build: bitmap memory

	TraceID  string            `json:"trace_id,omitempty"`  // span_*: 32-hex trace ID
	SpanID   string            `json:"span_id,omitempty"`   // span_*: 16-hex span ID
	ParentID string            `json:"parent_id,omitempty"` // span_start: parent span ID
	Name     string            `json:"name,omitempty"`      // span_*: operation name
	Attrs    map[string]string `json:"attrs,omitempty"`     // span_end: attributes
}

func newEvent(t EventType) Event {
	return Event{Type: t, Tuple: -1, A: -1, B: -1}
}

// RunStart builds a run_start event.
func RunStart(algo string, n, crowdDims int) Event {
	e := newEvent(EventRunStart)
	e.Algo, e.N, e.CrowdDims = algo, n, crowdDims
	return e
}

// RunEnd builds a run_end event.
func RunEnd(questions, rounds, skyline int) Event {
	e := newEvent(EventRunEnd)
	e.Questions, e.Rounds, e.Skyline = questions, rounds, skyline
	return e
}

// RoundStart builds a round_start event for the 1-based round number.
func RoundStart(round, questions int) Event {
	e := newEvent(EventRoundStart)
	e.Round, e.Questions = round, questions
	return e
}

// RoundEnd builds a round_end event with the round's wall-clock duration.
func RoundEnd(round, questions int, d time.Duration) Event {
	e := newEvent(EventRoundEnd)
	e.Round, e.Questions = round, questions
	e.DurationMS = float64(d) / float64(time.Millisecond)
	return e
}

// P1Prune builds a p1_prune event: DS(tuple) shrank from before to after
// members by dropping complete non-skyline tuples.
func P1Prune(tuple, before, after int) Event {
	e := newEvent(EventP1Prune)
	e.Tuple, e.Before, e.After, e.Removed = tuple, before, after, before-after
	return e
}

// P2Reduce builds a p2_reduce event: DS(tuple) was reduced to its AC
// skyline, from before to after members.
func P2Reduce(tuple, before, after int) Event {
	e := newEvent(EventP2Reduce)
	e.Tuple, e.Before, e.After, e.Removed = tuple, before, after, before-after
	return e
}

// P3Resolve builds a p3_resolve event: probing removed member from
// DS(tuple).
func P3Resolve(tuple, member int) Event {
	e := newEvent(EventP3Resolve)
	e.Tuple, e.A, e.Removed = tuple, member, 1
	return e
}

// VoteEscalation builds a vote_escalation event: the pair (a, b) was
// assigned workers > base workers by the voting policy.
func VoteEscalation(a, b, workers, base int) Event {
	e := newEvent(EventVoteEscalation)
	e.A, e.B, e.Workers, e.Base = a, b, workers, base
	return e
}

// IndexBuild builds an index_build event: a dominance index over n
// tuples with pairs dominance pairs and bytes of bitmap memory was built
// in d.
func IndexBuild(n, pairs int, bytes int64, d time.Duration) Event {
	e := newEvent(EventIndexBuild)
	e.N, e.Pairs, e.Bytes = n, pairs, bytes
	e.DurationMS = float64(d) / float64(time.Millisecond)
	return e
}

// BudgetTruncated builds a budget_truncated event after asked questions
// exhausted the budget.
func BudgetTruncated(asked, budget int) Event {
	e := newEvent(EventBudgetTruncated)
	e.Questions, e.Budget = asked, budget
	return e
}

// Tracer receives algorithm trace events. Implementations must be safe
// for concurrent use: parallel algorithms emit from a single goroutine
// today, but platform decorators and servers may not.
//
// A nil Tracer means tracing is disabled; emitters check for nil before
// building the event, so the disabled path costs one pointer comparison.
type Tracer interface {
	Emit(Event)
}

// Collector is a Tracer that appends every event to memory; intended for
// tests and in-process inspection. Like JSONL it stamps events emitted
// without a Time.
type Collector struct {
	mu     sync.Mutex
	events []Event // skylint:guardedby mu
}

// Emit implements Tracer.
func (c *Collector) Emit(e Event) { // skylint:ignore recvcopy Emit's by-value signature is pinned by the Tracer interface
	c.mu.Lock()
	defer c.mu.Unlock()
	e.Seq = len(c.events) + 1
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	//skylint:alloc-ok the Collector is the in-memory test tracer; unbounded growth is its contract
	c.events = append(c.events, e)
}

// Events returns a copy of the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// ByType returns the collected events of one type, in emission order.
func (c *Collector) ByType(t EventType) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many events of one type were collected.
func (c *Collector) Count(t EventType) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// multi fans events out to several tracers.
type multi []Tracer

// Multi combines tracers into one; nil members are skipped. With zero or
// one non-nil member the member itself (or nil) is returned, keeping the
// single-tracer hot path free of indirection.
func Multi(tracers ...Tracer) Tracer {
	var live multi
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

// Emit implements Tracer.
func (m multi) Emit(e Event) { // skylint:ignore recvcopy Emit's by-value signature is pinned by the Tracer interface
	for _, t := range m {
		// skylint:ignore nilness Multi filters nil members at construction
		t.Emit(e)
	}
}

// Emit forwards e to t if t is non-nil. It is the sanctioned way to emit
// on a possibly-nil Tracer without writing the nil check inline (the
// nilness analyzer accepts call sites spelled telemetry.Emit(t, e)).
func Emit(t Tracer, e Event) {
	if t != nil {
		t.Emit(e)
	}
}
