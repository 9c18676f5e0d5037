package crowdserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdsky/internal/crowd"
	"crowdsky/internal/telemetry"
)

// answerOne leases the next assignment as worker and answers it "first".
func answerOne(t *testing.T, baseURL, worker string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/work?worker=" + worker)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("work: %s", resp.Status)
	}
	job := decode[workItem](t, resp)
	resp = postJSON(t, baseURL+"/api/answers", map[string]any{
		"assignment_id": job.AssignmentID, "worker": worker, "pref": "first",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer: %s", resp.Status)
	}
}

// waitHeld returns once a request to srv has reached a long-poll hold
// (it registered the serving http.Server's shutdown hook).
func waitHeld(t *testing.T, srv *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		n := len(srv.stops)
		srv.mu.Unlock()
		if n > 0 {
			return
		}
	}
	t.Fatal("no request reached a long-poll hold")
}

// TestLongPollRound holds a round poll with wait=5000 and lands the last
// judgment while it is parked: the poll must answer done as soon as the
// round completes, not when the wait runs out.
func TestLongPollRound(t *testing.T) {
	srv, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 1}},
	})
	resp.Body.Close()

	type result struct {
		done bool
		took time.Duration
		err  error
	}
	got := make(chan result, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/api/rounds/1?wait=5000")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var body struct {
			Done bool `json:"done"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		got <- result{done: body.Done, took: time.Since(start), err: err}
	}()
	waitHeld(t, srv)
	answerOne(t, ts.URL, "w1")

	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.done {
		t.Fatal("held poll answered not-done; it did not wait for the judgment")
	}
	if r.took > time.Second {
		t.Errorf("held poll took %v; it should wake when the round completes", r.took)
	}
}

// TestLongPollWork holds a work poll on an empty queue and posts a round
// while it is parked: the poll must wake and lease the new assignment.
func TestLongPollWork(t *testing.T) {
	srv, ts := newTestServer(t)
	type result struct {
		status int
		job    workItem
		took   time.Duration
		err    error
	}
	got := make(chan result, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/api/work?worker=w1&wait=5000")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		r := result{status: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			r.err = json.NewDecoder(resp.Body).Decode(&r.job)
		}
		r.took = time.Since(start)
		got <- r
	}()
	waitHeld(t, srv)
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 3, B: 4, Attr: 0, Workers: 1}},
	})
	resp.Body.Close()

	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK || r.job.A != 3 || r.job.B != 4 {
		t.Fatalf("held work poll = %d %+v, want the posted assignment", r.status, r.job)
	}
	if r.took > time.Second {
		t.Errorf("held work poll took %v; it should wake when the round is posted", r.took)
	}
}

// TestLongPollReleasedOnShutdown parks a work poll and shuts the
// http.Server down: the drain must not wait out the hold.
func TestLongPollReleasedOnShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	polled := make(chan int, 1)
	go func() {
		resp, err := http.Get(url + "/api/work?worker=w1&wait=10000")
		if err != nil {
			polled <- 0
			return
		}
		resp.Body.Close()
		polled <- resp.StatusCode
	}()
	waitHeld(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("shutdown took %v; the held poll stalled the drain", took)
	}
	if code := <-polled; code != http.StatusNoContent {
		t.Errorf("released poll = %d, want 204", code)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("serve: %v", err)
	}
}

// TestLongPollReleasedOnDisconnect parks a round poll and drops the
// client: the handler must return, so closing the server is prompt.
func TestLongPollReleasedOnDisconnect(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 1}},
	})
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/rounds/1?wait=10000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("held poll answered before the client gave up")
	}
	// httptest's Close waits for running handlers.
	start := time.Now()
	ts.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("close took %v; the abandoned poll kept its handler parked", took)
	}
}

// TestLongPollOldServer runs the client against a marketplace that
// ignores ?wait= (a proxy strips it): the client must fall back to
// sleeping out its interval, collect the same answers, and count its
// re-polls under "poll".
func TestLongPollOldServer(t *testing.T) {
	srv := NewServer()
	var waits atomic.Int32
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if q.Has("wait") {
			waits.Add(1)
			q.Del("wait")
			r.URL.RawQuery = q.Encode()
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	reg := telemetry.NewRegistry()
	c.InstrumentMetrics(reg)
	reqs := []crowd.Request{
		{Q: crowd.Question{A: 0, B: 1, Attr: 0}, Workers: 1},
		{Q: crowd.Question{A: 2, B: 3, Attr: 1}, Workers: 1},
	}
	got := make(chan []crowd.Answer, 1)
	go func() { got <- c.Ask(reqs) }()

	// Answer by hand once the client has re-polled.
	for deadline := time.Now().Add(5 * time.Second); waits.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("client never re-polled")
		}
	}
	answerOne(t, ts.URL, "w1")
	answerOne(t, ts.URL, "w1")

	var answers []crowd.Answer
	select {
	case answers = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("client never collected the round")
	}
	want := []crowd.Answer{
		{Q: reqs[0].Q, Pref: crowd.First},
		{Q: reqs[1].Q, Pref: crowd.First},
	}
	if fmt.Sprint(answers) != fmt.Sprint(want) {
		t.Errorf("answers = %v, want %v", answers, want)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	var polls int
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `crowdserve_client_retries_total{cause="poll"} `); ok {
			fmt.Sscan(v, &polls)
		}
	}
	// The round was answered soon after the third poll; a client that
	// skipped the sleep would count hundreds of re-polls.
	if polls < 2 || polls > 20 {
		t.Errorf("re-polls counted under poll = %d, want 2..20:\n%s", polls, sb.String())
	}
}

// TestWaitParam pins the parsing of the untrusted ?wait= and the
// client's rendering of it.
func TestWaitParam(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want time.Duration
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"250", 250 * time.Millisecond, true},
		{"10000", maxWait, true},
		{"600000", maxWait, true},
		{"99999999999999999999999", maxWait, true},
		{"-1", 0, false},
		{"+5", 0, false},
		{"1.5", 0, false},
		{"5ms", 0, false},
		{"abc", 0, false},
	} {
		got, ok := parseWait(tc.raw)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseWait(%q) = %v, %v; want %v, %v", tc.raw, got, ok, tc.want, tc.ok)
		}
	}
	for _, tc := range []struct {
		d, timeout time.Duration
		want       string
	}{
		{3500 * time.Microsecond, 30 * time.Second, "4"},
		{6 * time.Millisecond, 30 * time.Second, "6"},
		{time.Hour, 30 * time.Second, "15000"},
		{0, 30 * time.Second, "0"},
		{-5 * time.Millisecond, 30 * time.Second, "0"},
	} {
		if got := waitParam(tc.d, tc.timeout); got != tc.want {
			t.Errorf("waitParam(%v, %v) = %q, want %q", tc.d, tc.timeout, got, tc.want)
		}
	}

	_, ts := newTestServer(t)
	for _, path := range []string{
		"/api/work?worker=w1&wait=-1",
		"/api/work?worker=w1&wait=abc",
		"/api/rounds/1?wait=-1",
		"/api/rounds/1?wait=soon",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %s, want 400", path, resp.Status)
		}
	}
	// A huge wait is clamped, and a finished round answers at once.
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 1}},
	})
	resp.Body.Close()
	answerOne(t, ts.URL, "w1")
	start := time.Now()
	resp, err := http.Get(ts.URL + "/api/rounds/1?wait=99999999999999999999999")
	if err != nil {
		t.Fatal(err)
	}
	if st := decode[struct {
		Done bool `json:"done"`
	}](t, resp); !st.Done || time.Since(start) > time.Second {
		t.Errorf("finished round under a huge wait: done=%v after %v", st.Done, time.Since(start))
	}
}

// TestRoundRetention completes three ring capacities of rounds: the
// server keeps only the newest roundRetention completed rounds and their
// idempotency keys, never evicts an open round, answers evicted rounds
// with 410, keeps its stats as running totals, and round-trips the ring
// through a snapshot.
func TestRoundRetention(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	do := func(method, path, key, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	post := func(key string) int64 {
		t.Helper()
		rec := do(http.MethodPost, "/api/rounds", key, `{"questions":[{"a":0,"b":1,"attr":0,"workers":1}]}`)
		if rec.Code != http.StatusCreated {
			t.Fatalf("post %s: %d", key, rec.Code)
		}
		var out struct {
			RoundID int64 `json:"round_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.RoundID
	}
	answer := func() {
		t.Helper()
		rec := do(http.MethodGet, "/api/work?worker=w1", "", "")
		var job workItem
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatalf("work: %d %v", rec.Code, err)
		}
		body := fmt.Sprintf(`{"assignment_id":%d,"worker":"w1","pref":"first"}`, job.AssignmentID)
		if rec := do(http.MethodPost, "/api/answers", "", body); rec.Code != http.StatusOK {
			t.Fatalf("answer: %d", rec.Code)
		}
	}
	status := func(id int64) int {
		t.Helper()
		return do(http.MethodGet, fmt.Sprintf("/api/rounds/%d", id), "", "").Code
	}

	// An open round: its only slot is leased to w2, who never answers.
	open := post("open")
	if rec := do(http.MethodGet, "/api/work?worker=w2", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("lease open round: %d", rec.Code)
	}
	const total = 3 * roundRetention
	for i := 1; i <= total; i++ {
		post(fmt.Sprintf("k-%d", i))
		answer()
	}

	srv.mu.Lock()
	rounds, idem := len(srv.rounds), len(srv.idem)
	srv.mu.Unlock()
	if rounds != roundRetention+1 || idem != roundRetention+1 {
		t.Errorf("retained %d rounds and %d keys, want %d of each", rounds, idem, roundRetention+1)
	}
	if code := status(open); code != http.StatusOK {
		t.Errorf("open round: %d, want 200", code)
	}
	lastID := open + total
	if got := post(fmt.Sprintf("k-%d", total)); got != lastID {
		t.Errorf("replay of a retained key returned round %d, want %d", got, lastID)
	}
	if code := status(lastID); code != http.StatusOK {
		t.Errorf("retained round: %d, want 200", code)
	}
	for _, id := range []int64{open + 1, lastID - roundRetention} {
		if code := status(id); code != http.StatusGone {
			t.Errorf("evicted round %d: %d, want 410", id, code)
		}
	}
	if code := status(lastID + 100); code != http.StatusNotFound {
		t.Errorf("never-posted round: %d, want 404", code)
	}
	var st struct {
		Rounds    int `json:"rounds"`
		Questions int `json:"questions"`
	}
	if err := json.Unmarshal(do(http.MethodGet, "/api/stats", "", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != total+1 || st.Questions != total+1 {
		t.Errorf("stats rounds=%d questions=%d, want running totals %d", st.Rounds, st.Questions, total+1)
	}

	// Snapshot round trip: byte-identical, and the restored ring evicts
	// the oldest retained round on the next completion.
	var snap1, snap2 bytes.Buffer
	if err := srv.Snapshot(&snap1); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer()
	if err := srv2.Restore(bytes.NewReader(snap1.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Error("snapshot changed across restore")
	}
	srv, h = srv2, srv2.Handler()
	oldest := lastID - roundRetention + 1
	if code := status(oldest); code != http.StatusOK {
		t.Fatalf("oldest retained round after restore: %d", code)
	}
	post("after-restore")
	answer()
	if code := status(oldest); code != http.StatusGone {
		t.Errorf("restored ring did not evict its oldest round: %d", code)
	}
	if code := status(open); code != http.StatusOK {
		t.Errorf("open round after restore: %d, want 200", code)
	}
}

// TestRestoreBoundsOldSnapshot loads a snapshot from before retention:
// no stats totals and more completed rounds than the ring holds. The
// totals are derived, only the newest completed rounds are kept, and
// the evicted rounds' idempotency keys go with them.
func TestRestoreBoundsOldSnapshot(t *testing.T) {
	const n = roundRetention + 10
	snap := snapshot{NextRoundID: n, NextAssign: n, Judgments: n, Idempotency: map[string]int64{}}
	for id := int64(1); id <= n; id++ {
		snap.Rounds = append(snap.Rounds, roundSnapshot{
			ID:        id,
			Questions: []QuestionJSON{{A: 0, B: 1, Workers: 1}},
			Votes:     [][]string{{"first"}},
			Needed:    []int{1},
		})
		snap.Idempotency[fmt.Sprintf("k-%d", id)] = id
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.rounds) != roundRetention || len(srv.idem) != roundRetention {
		t.Errorf("restored %d rounds and %d keys, want %d", len(srv.rounds), len(srv.idem), roundRetention)
	}
	if _, ok := srv.idem["k-1"]; ok {
		t.Error("evicted round kept its idempotency key")
	}
	if _, ok := srv.rounds[n]; !ok {
		t.Error("newest round was evicted")
	}
	if srv.totalRounds != n || srv.totalQuestions != n {
		t.Errorf("totals = %d rounds, %d questions; want %d derived", srv.totalRounds, srv.totalQuestions, n)
	}
}
