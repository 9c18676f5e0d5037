package crowdserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"crowdsky/internal/crowd"
	"crowdsky/internal/faultinject"
)

// WorkerConfig configures a simulated worker fleet driven against a
// marketplace over HTTP.
type WorkerConfig struct {
	// Count is the number of concurrent workers.
	Count int
	// Truth supplies correct answers; each worker errs independently.
	Truth crowd.Truth
	// Reliability is each worker's correctness probability.
	Reliability float64
	// PollInterval between work fetches when the queue is empty; defaults
	// to 50ms. Each fetch asks the server to hold it that long (?wait=),
	// and the worker sleeps only what the server did not hold.
	PollInterval time.Duration
	// Seed drives the fleet's randomness.
	Seed int64
	// Faults, when non-nil, makes workers misbehave on purpose: abandon
	// fetched assignments (no-show), submit a judgment twice, or submit
	// after the lease lapsed. The decision stream is drawn from each
	// worker's own seeded RNG, so a fixed Seed reproduces the same
	// misbehaviour schedule. The marketplace must absorb all of it.
	Faults *faultinject.WorkerFaults
}

// SimulateWorkers runs a fleet of simulated workers against the
// marketplace at baseURL until ctx is cancelled. It returns after all
// workers have stopped. Errors from individual requests are retried after
// the poll interval — workers on flaky networks must not wedge.
func SimulateWorkers(ctx context.Context, baseURL string, cfg WorkerConfig) {
	poll := cfg.PollInterval
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	var wg sync.WaitGroup
	// One Add for the whole fleet, before any goroutine starts: the
	// counter can never be observed mid-ramp by Wait.
	wg.Add(cfg.Count)
	for w := 0; w < cfg.Count; w++ {
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
			worker := crowd.Worker{ID: id, Reliability: cfg.Reliability}
			name := fmt.Sprintf("sim-%d", id)
			client := &http.Client{Timeout: 10 * time.Second}
			workURL := baseURL + "/api/work?worker=" + name + "&wait=" + waitParam(poll, client.Timeout)
			for {
				select {
				case <-ctx.Done():
					return
				default:
				}
				start := time.Now()
				job, ok := fetchWork(ctx, client, workURL)
				if !ok {
					if sleepCtx(ctx, poll-time.Since(start)) != nil {
						return
					}
					continue
				}
				q := crowd.Question{A: job.A, B: job.B, Attr: job.Attr}
				if !cfg.Truth.Contains(q) {
					// The requester asked about tuples this worker's
					// dataset does not have: skip the job rather than
					// judge it; its lease lapses back to the queue.
					continue
				}
				truth := cfg.Truth.Answer(q)
				answer := worker.Judge(truth, rng)
				var fault faultinject.Kind
				if cfg.Faults != nil {
					fault = cfg.Faults.Next(rng)
				}
				switch fault {
				case faultinject.KindWorkerNoShow:
					// Walk away with the lease; the server must requeue the
					// slot once it lapses.
				case faultinject.KindWorkerDuplicate:
					submitAnswer(ctx, client, baseURL, name, job.AssignmentID, answer)
					submitAnswer(ctx, client, baseURL, name, job.AssignmentID, answer)
				case faultinject.KindWorkerStale:
					// Outlive the lease, then submit; the server must reject
					// the late judgment (the slot belongs to someone else).
					select {
					case <-ctx.Done():
						return
					case <-time.After(cfg.Faults.Delay()):
					}
					submitAnswer(ctx, client, baseURL, name, job.AssignmentID, answer)
				default:
					submitAnswer(ctx, client, baseURL, name, job.AssignmentID, answer)
				}
			}
		}(w)
	}
	wg.Wait()
}

type workItem struct {
	AssignmentID int64 `json:"assignment_id"`
	A            int   `json:"a"`
	B            int   `json:"b"`
	Attr         int   `json:"attr"`
}

func fetchWork(ctx context.Context, client *http.Client, url string) (workItem, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return workItem{}, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return workItem{}, false
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return workItem{}, false
	}
	var job workItem
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return workItem{}, false
	}
	return job, true
}

func submitAnswer(ctx context.Context, client *http.Client, baseURL, worker string, assignment int64, pref crowd.Preference) {
	body, err := json.Marshal(map[string]any{
		"assignment_id": assignment,
		"worker":        worker,
		"pref":          pref.String(),
	})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		baseURL+"/api/answers", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	drainClose(resp.Body)
}
