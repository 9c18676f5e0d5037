package crowdserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMarketplaceLifecycle drives one round through the raw HTTP API:
// post, fetch work, answer, collect.
func TestMarketplaceLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 3}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post round: %s", resp.Status)
	}
	round := decode[map[string]int64](t, resp)
	id := round["round_id"]

	// Round not done yet.
	resp, err := http.Get(ts.URL + "/api/rounds/1")
	if err != nil {
		t.Fatal(err)
	}
	status := decode[struct {
		Done bool `json:"done"`
	}](t, resp)
	if status.Done {
		t.Fatalf("round done before any judgment")
	}

	// Three distinct workers answer; the same worker cannot take two
	// slots of one question.
	for w := 0; w < 3; w++ {
		worker := string(rune('a' + w))
		resp, err := http.Get(ts.URL + "/api/work?worker=" + worker)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker %s got %s", worker, resp.Status)
		}
		job := decode[workItem](t, resp)
		// The same worker asking again gets nothing (single question).
		again, err := http.Get(ts.URL + "/api/work?worker=" + worker)
		if err != nil {
			t.Fatal(err)
		}
		if again.StatusCode != http.StatusNoContent {
			t.Fatalf("worker %s given a second slot of the same question: %s", worker, again.Status)
		}
		again.Body.Close()
		pref := "first"
		if w == 2 {
			pref = "second" // minority vote
		}
		resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
			"assignment_id": job.AssignmentID, "worker": worker, "pref": pref,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("answer: %s", resp.Status)
		}
		resp.Body.Close()
	}

	resp, err = http.Get(ts.URL + "/api/rounds/" + itoa64(id))
	if err != nil {
		t.Fatal(err)
	}
	final := decode[struct {
		Done    bool         `json:"done"`
		Answers []AnswerJSON `json:"answers"`
	}](t, resp)
	if !final.Done || len(final.Answers) != 1 {
		t.Fatalf("final = %+v", final)
	}
	if final.Answers[0].Pref != "first" {
		t.Errorf("majority = %s, want first", final.Answers[0].Pref)
	}
}

func itoa64(v int64) string {
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if i == len(buf) {
		return "0"
	}
	return string(buf[i:])
}

// TestLeaseExpiry: an unanswered assignment returns to the queue after its
// lease lapses, so another worker can take it.
func TestLeaseExpiry(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetLease(1 * time.Millisecond)

	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 1}},
	})
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/api/work?worker=slacker")
	if err != nil {
		t.Fatal(err)
	}
	job := decode[workItem](t, resp)
	time.Sleep(5 * time.Millisecond)

	// Another worker gets the requeued assignment.
	resp, err = http.Get(ts.URL + "/api/work?worker=diligent")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("requeued assignment not handed out: %s", resp.Status)
	}
	job2 := decode[workItem](t, resp)
	if job2.A != job.A || job2.B != job.B {
		t.Errorf("different question after requeue")
	}
	// The slacker's late answer is rejected.
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": job.AssignmentID, "worker": "slacker", "pref": "first",
	})
	if resp.StatusCode == http.StatusOK {
		t.Errorf("expired lease accepted an answer")
	}
	resp.Body.Close()
	// The diligent worker's answer lands.
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": job2.AssignmentID, "worker": "diligent", "pref": "second",
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid answer rejected: %s", resp.Status)
	}
	resp.Body.Close()
}

func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	// Empty round.
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{"questions": []QuestionJSON{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty round: %s", resp.Status)
	}
	resp.Body.Close()
	// Unknown round.
	r, err := http.Get(ts.URL + "/api/rounds/999")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown round: %s", r.Status)
	}
	r.Body.Close()
	// Missing worker id.
	r, err = http.Get(ts.URL + "/api/work")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("missing worker: %s", r.Status)
	}
	r.Body.Close()
	// Bad preference.
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": 1, "worker": "w", "pref": "maybe",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad pref: %s", resp.Status)
	}
	resp.Body.Close()
	// Answer to an unleased assignment.
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": 42, "worker": "w", "pref": "first",
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unleased answer: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestEndToEndSkylineOverHTTP is the flagship integration test: the full
// CrowdSky algorithm runs over the HTTP marketplace against a fleet of
// simulated workers, and recovers the paper's toy skyline.
func TestEndToEndSkylineOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	d := dataset.Toy()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        4,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1.0,
			PollInterval: 2 * time.Millisecond,
			Seed:         1,
		})
	}()

	client := NewClient(ts.URL)
	client.PollInterval = 2 * time.Millisecond
	res := core.ParallelSL(d, client, core.AllPruning())

	cancel()
	<-workersDone

	want := core.Oracle(d)
	if !metrics.SameSet(res.Skyline, want) {
		t.Errorf("skyline over HTTP = %v, want %v", res.Skyline, want)
	}
	if res.Questions != 12 || res.Rounds != 6 {
		t.Errorf("HTTP run: %d questions in %d rounds, want 12 in 6", res.Questions, res.Rounds)
	}
}

// TestEndToEndMajorityVotingOverHTTP: noisy workers with 3-worker majority
// voting still answer; the run completes and the stats add up.
func TestEndToEndMajorityVotingOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	d := dataset.Toy()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        6,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  0.9,
			PollInterval: 2 * time.Millisecond,
			Seed:         7,
		})
	}()

	client := NewClient(ts.URL)
	client.PollInterval = 2 * time.Millisecond
	opts := core.AllPruning()
	opts.Voting = staticPolicy{3}
	res := core.CrowdSky(d, client, opts)

	cancel()
	<-workersDone

	if res.WorkerAnswers != 3*res.Questions {
		t.Errorf("worker answers %d != 3 × %d", res.WorkerAnswers, res.Questions)
	}
	if len(res.Skyline) == 0 {
		t.Errorf("empty skyline")
	}
}

// staticPolicy avoids importing the voting package for a one-liner.
type staticPolicy struct{ omega int }

func (p staticPolicy) Workers(int) int { return p.omega }

// TestClientEmptyAsk: an empty round is a no-op without network traffic.
func TestClientEmptyAsk(t *testing.T) {
	client := NewClient("http://unreachable.invalid")
	if client.Ask(nil) != nil {
		t.Errorf("empty ask returned answers")
	}
	if client.Stats().Rounds() != 0 {
		t.Errorf("empty ask consumed a round")
	}
}

// TestStatsEndpointShape checks the JSON shape of GET /api/stats including
// the lease-requeue and per-worker judgment extensions.
func TestStatsEndpointShape(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetLease(1 * time.Millisecond)

	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{
			{A: 0, B: 1, Attr: 0, Workers: 1},
			{A: 2, B: 3, Attr: 0, Workers: 1},
		},
	})
	resp.Body.Close()

	// First worker leases an assignment and lets it lapse (one requeue);
	// a second worker answers both questions.
	resp, err := http.Get(ts.URL + "/api/work?worker=slacker")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 2; i++ {
		resp, err = http.Get(ts.URL + "/api/work?worker=diligent")
		if err != nil {
			t.Fatal(err)
		}
		job := decode[workItem](t, resp)
		resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
			"assignment_id": job.AssignmentID, "worker": "diligent", "pref": "first",
		})
		resp.Body.Close()
	}

	resp, err = http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	type statsResp struct {
		Rounds            int            `json:"rounds"`
		Questions         int            `json:"questions"`
		Judgments         int            `json:"judgments"`
		Open              int            `json:"open"`
		LeaseRequeues     int            `json:"lease_requeues"`
		JudgmentsByWorker map[string]int `json:"judgments_by_worker"`
	}
	st := decode[statsResp](t, resp)
	if st.Rounds != 1 || st.Questions != 2 || st.Judgments != 2 || st.Open != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.LeaseRequeues != 1 {
		t.Errorf("lease_requeues = %d, want 1", st.LeaseRequeues)
	}
	if st.JudgmentsByWorker["diligent"] != 2 || st.JudgmentsByWorker["slacker"] != 0 {
		t.Errorf("judgments_by_worker = %v", st.JudgmentsByWorker)
	}
}

// TestMetricsEndpoint scrapes GET /metrics after a round completes and
// checks the Prometheus exposition carries the marketplace counters and
// the per-route HTTP latency histograms.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Attr: 0, Workers: 1}},
	})
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/api/work?worker=w1")
	if err != nil {
		t.Fatal(err)
	}
	job := decode[workItem](t, resp)
	resp = postJSON(t, ts.URL+"/api/answers", map[string]any{
		"assignment_id": job.AssignmentID, "worker": "w1", "pref": "first",
	})
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, line := range []string{
		"crowdserve_rounds_total 1",
		"crowdserve_questions_total 1",
		"crowdserve_judgments_total 1",
		"crowdserve_lease_requeues_total 0",
		"crowdserve_open_assignments 0",
		`crowdserve_http_requests_total{route="/api/rounds",method="POST",code="201"} 1`,
		`crowdserve_http_request_seconds_count{route="/api/answers"} 1`,
		"# TYPE crowdserve_http_request_seconds histogram",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestPersistRequeuesAndPerWorker round-trips the new snapshot fields.
func TestPersistRequeuesAndPerWorker(t *testing.T) {
	srv := NewServer()
	srv.mu.Lock()
	srv.requeues = 3
	srv.perWorker["w1"] = 7
	srv.mu.Unlock()

	var buf bytes.Buffer
	if err := srv.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewServer()
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	restored.mu.Lock()
	defer restored.mu.Unlock()
	if restored.requeues != 3 || restored.perWorker["w1"] != 7 {
		t.Errorf("restored requeues=%d perWorker=%v", restored.requeues, restored.perWorker)
	}
}

// TestPostRoundRejectsHostile sends rounds that would make the server
// allocate without bound or panic — a question with millions of workers,
// one whose workers overflow a slice length, negative tuple ids or
// attribute, a round whose questions are each within the per-question
// cap but together exceed the per-round one, and a body past the byte
// cap. Each must get a 400 without touching the
// round counter or the queue, so the next valid round still gets id 1.
func TestPostRoundRejectsHostile(t *testing.T) {
	srv, ts := newTestServer(t)
	many := make([]QuestionJSON, maxRoundAssignments/maxWorkersPerQuestion+1)
	for i := range many {
		many[i] = QuestionJSON{A: 0, B: 1, Workers: maxWorkersPerQuestion}
	}
	bodies := map[string][]byte{
		"workers 2000000": []byte(`{"questions":[{"a":0,"b":1,"workers":2000000}]}`),
		"workers 2^62":    []byte(`{"questions":[{"a":0,"b":1,"workers":4611686018427387904}]}`),
		"negative a":      []byte(`{"questions":[{"a":-1,"b":1,"workers":1}]}`),
		"negative b":      []byte(`{"questions":[{"a":0,"b":-5,"workers":1}]}`),
		"negative attr":   []byte(`{"questions":[{"a":0,"b":1,"attr":-1,"workers":1}]}`),
		// Valid JSON, so only the byte cap can reject it.
		"oversized body": []byte(`{"questions":[{"a":0,"b":1,"workers":1}]` + strings.Repeat(" ", maxBodyBytes) + `}`),
	}
	data, err := json.Marshal(map[string]any{"questions": many})
	if err != nil {
		t.Fatal(err)
	}
	bodies["round over assignment cap"] = data
	for name, body := range bodies {
		resp, err := http.Post(ts.URL+"/api/rounds", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", name, resp.Status)
		}
	}
	srv.mu.Lock()
	next, queued := srv.nextRoundID, len(srv.queue)
	srv.mu.Unlock()
	if next != 0 || queued != 0 {
		t.Fatalf("rejected rounds left nextRoundID=%d, %d queued assignments; want 0, 0", next, queued)
	}
	resp := postJSON(t, ts.URL+"/api/rounds", map[string]any{
		"questions": []QuestionJSON{{A: 0, B: 1, Workers: 0}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid round after rejections: %s", resp.Status)
	}
	if got := decode[map[string]int64](t, resp); got["round_id"] != 1 {
		t.Fatalf("valid round after rejections got id %d, want 1", got["round_id"])
	}
	srv.mu.Lock()
	queued = len(srv.queue)
	srv.mu.Unlock()
	if queued != 1 {
		t.Fatalf("workers 0 queued %d assignments, want 1 (clamped)", queued)
	}
}

// TestSimulatedWorkerSkipsUnknownTuples posts a question about a tuple
// id far past the simulated workers' 50-tuple dataset. The worker must
// skip that job rather than index out of range (which would take the
// whole process down), and go on to answer the next valid round.
func TestSimulatedWorkerSkipsUnknownTuples(t *testing.T) {
	_, ts := newTestServer(t)
	d := dataset.MustGenerate(dataset.GenerateConfig{
		N: 50, KnownDims: 2, CrowdDims: 1, Distribution: dataset.Independent,
	}, rand.New(rand.NewSource(1)))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		SimulateWorkers(ctx, ts.URL, WorkerConfig{
			Count:        1,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1,
			PollInterval: 2 * time.Millisecond,
			Seed:         1,
		})
	}()

	for _, body := range []string{
		`{"questions":[{"a":0,"b":999999,"workers":1}]}`,
		`{"questions":[{"a":0,"b":1,"workers":1}]}`,
	} {
		resp, err := http.Post(ts.URL+"/api/rounds", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("post %s: %s", body, resp.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/api/rounds/2?wait=10000")
	if err != nil {
		t.Fatal(err)
	}
	if status := decode[struct {
		Done bool `json:"done"`
	}](t, resp); !status.Done {
		t.Fatal("valid round after the out-of-range one was not answered")
	}
	resp, err = http.Get(ts.URL + "/api/rounds/1")
	if err != nil {
		t.Fatal(err)
	}
	if status := decode[struct {
		Done bool `json:"done"`
	}](t, resp); status.Done {
		t.Fatal("out-of-range round was answered")
	}
	cancel()
	<-workersDone
}
