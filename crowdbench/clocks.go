package main

import (
	"context"
	"io"
	"maps"
	"net/http"
	"strings"
	"sync"
	"time"

	"crowdsky/internal/crowd"
)

// The clocks in this file measure the program from outside: each wraps
// one exported interface of a layer (crowd.Platform, http.RoundTripper,
// http.Handler), times the calls through it and forwards them unchanged.
// None of them wraps voting.Policy: core type-asserts the policy for
// ProgressPolicy and ContextPolicy, so a wrapper would silently turn
// dynamic and smart voting into static voting.

// span is one timed call at a layer boundary. Run and Round tag the
// crowdsky run and the crowd round the call belongs to (Round is 0 for
// calls outside any round).
type span struct {
	Run   int    `json:"run"`
	Round int    `json:"round"`
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the traced pass writes them out.
// Start times are relative to the log's epoch.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	round int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span that started at start and ended now, tagged with
// the current run and round, and returns its duration.
func (l *spanLog) add(layer, name string, start time.Time) time.Duration {
	dur := time.Since(start)
	if l == nil {
		return dur
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{
		Run: l.run, Round: l.round, Layer: layer, Name: name,
		Start: int64(start.Sub(l.epoch)), Dur: int64(dur),
	})
	l.mu.Unlock()
	return dur
}

func (l *spanLog) setRound(r int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.round = r
	l.mu.Unlock()
}

func (l *spanLog) nextRun() {
	l.mu.Lock()
	l.run++
	l.round = 0
	l.mu.Unlock()
}

// round is what recorder keeps of one Ask: when it started and ended,
// and where its questions and answers sit in the recorder's flat logs.
type round struct {
	start, end time.Time
	lo, hi     int
}

// recorder is a crowd.Platform that forwards every round to an inner
// platform and records it. It implements crowd.ContextPlatform and
// forwards through crowd.AskWithContext, so a context-aware inner
// platform (the marketplace client) still receives the run's context,
// and its Stats are the inner platform's own. Questions and answers are
// copied into flat logs, because the caller may reuse its request
// buffer and the logs grow by amortized doubling instead of allocating
// per round inside the timed run.
type recorder struct {
	inner   crowd.Platform
	spans   *spanLog // nil outside the traced pass
	rounds  []round
	reqs    []crowd.Request
	answers []crowd.Answer
}

func newRecorder(inner crowd.Platform, spans *spanLog) *recorder {
	return &recorder{inner: inner, spans: spans}
}

func (r *recorder) Ask(reqs []crowd.Request) []crowd.Answer {
	return r.AskCtx(context.Background(), reqs)
}

func (r *recorder) AskCtx(ctx context.Context, reqs []crowd.Request) []crowd.Answer {
	if len(reqs) == 0 {
		return crowd.AskWithContext(ctx, r.inner, reqs)
	}
	r.spans.setRound(len(r.rounds) + 1)
	start := time.Now()
	answers := crowd.AskWithContext(ctx, r.inner, reqs)
	end := time.Now()
	r.spans.add("crowd", "ask", start)
	r.spans.setRound(0)
	lo := len(r.reqs)
	r.reqs = append(r.reqs, reqs...)
	r.answers = append(r.answers, answers...)
	r.rounds = append(r.rounds, round{start: start, end: end, lo: lo, hi: len(r.reqs)})
	return answers
}

func (r *recorder) Stats() *crowd.Stats { return r.inner.Stats() }

// askTime sums the time spent inside the inner platform's Ask.
func (r *recorder) askTime() time.Duration {
	var total time.Duration
	for _, rd := range r.rounds {
		total += rd.end.Sub(rd.start)
	}
	return total
}

// repeats counts questions asked again in a later round after an earlier
// round already answered them, keyed by unordered pair and attribute.
// Duplicates inside one round are not repeats: concurrently active
// pipelines may ask the same pair in the same round.
func (r *recorder) repeats() int {
	type key struct{ a, b, attr int }
	answered := make(map[key]bool)
	n := 0
	var round []key
	for _, rd := range r.rounds {
		round = round[:0]
		for _, q := range r.reqs[rd.lo:rd.hi] {
			k := key{q.Q.A, q.Q.B, q.Q.Attr}
			if k.a > k.b {
				k.a, k.b = k.b, k.a
			}
			if answered[k] {
				n++
			}
			round = append(round, k)
		}
		for _, k := range round {
			answered[k] = true
		}
	}
	return n
}

// Marketplace routes, as the client and the worker call them.
const (
	routePostRound  = "post_round"
	routeGetRound   = "get_round"
	routeGetWork    = "get_work"
	routePostAnswer = "post_answer"
	routeOther      = "other"
)

var routes = []string{routePostRound, routeGetRound, routeGetWork, routePostAnswer}

func routeOf(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && p == "/api/rounds":
		return routePostRound
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/rounds/"):
		return routeGetRound
	case r.Method == http.MethodGet && p == "/api/work":
		return routeGetWork
	case r.Method == http.MethodPost && p == "/api/answers":
		return routePostAnswer
	}
	return routeOther
}

// routeCounts holds calls, busy time and error statuses per route.
type routeCounts struct {
	calls  map[string]int
	busy   map[string]time.Duration
	empty  int // GET /api/work answered 204: no work queued
	errors int // transport failures and responses with status >= 400
}

func (c routeCounts) callsTotal() (n int) {
	for _, k := range c.calls {
		n += k
	}
	return n
}

func (c routeCounts) busyTotal() (d time.Duration) {
	for _, b := range c.busy {
		d += b
	}
	return d
}

// routeStats accumulates routeCounts. Handlers run on server goroutines
// while the requester runs on its own, so every access takes the mutex.
type routeStats struct {
	mu sync.Mutex
	c  routeCounts
}

func newRouteStats() *routeStats {
	return &routeStats{c: routeCounts{calls: make(map[string]int), busy: make(map[string]time.Duration)}}
}

func (s *routeStats) observe(route string, d time.Duration, status int, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.calls[route]++
	s.c.busy[route] += d
	if route == routeGetWork && status == http.StatusNoContent {
		s.c.empty++
	}
	if failed || status >= 400 {
		s.c.errors++
	}
}

// snapshot returns a copy of the counts so far.
func (s *routeStats) snapshot() routeCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	c.calls = maps.Clone(c.calls)
	c.busy = maps.Clone(c.busy)
	return c
}

// rpcClock wraps the requester's transport. An RPC lasts from the start
// of RoundTrip until the response body is closed, so reading the JSON
// answer counts as RPC time, not as waiting.
type rpcClock struct {
	inner http.RoundTripper
	stats *routeStats
	spans *spanLog
}

func (c *rpcClock) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req)
	start := time.Now()
	resp, err := c.inner.RoundTrip(req)
	if err != nil {
		c.stats.observe(route, c.spans.add("rpc", route, start), 0, true)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		c.stats.observe(route, c.spans.add("rpc", route, start), resp.StatusCode, false)
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handlerClock wraps the marketplace's http.Handler and times each
// request by route.
type handlerClock struct {
	inner http.Handler
	stats *routeStats
	spans *spanLog
}

func (h *handlerClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.inner.ServeHTTP(sw, r)
	h.stats.observe(route, h.spans.add("handler", route, start), sw.status, false)
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
