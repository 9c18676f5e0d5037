package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"crowdsky/internal/crowd"
	"crowdsky/internal/crowdserve"
	"crowdsky/internal/dataset"
)

// The served workload's cadence. The worker polls for work every
// millisecond. The requester's first sleep after an unfinished poll
// draws from 3-6ms, longer than the worker needs to lease and answer a
// typical round, so most rounds are done at the requester's second
// poll. With a 1ms requester poll the round would instead race that
// poll, and which side wins flips with the host's timer behaviour: on a
// 2-vCPU VM that moved run_s by 11-16% and round_ms by 15-23% between
// runs, against about 2% with this cadence.
const (
	workerPoll      = time.Millisecond
	pollInterval    = 6 * time.Millisecond
	maxPollInterval = 24 * time.Millisecond
)

// market is an in-process crowdserve marketplace on a loopback port. It
// lives for the whole benchmark process; each session brings its own
// one-worker fleet, because the simulated worker answers from the
// session's dataset.
type market struct {
	url    string
	srv    *http.Server
	served chan error
	// transport is the requester's connection pool, limited to one
	// connection so the closed loop is one requester plus one worker.
	transport *http.Transport
	// rpc and handler are non-nil in the traced pass only.
	rpc     *routeStats
	handler *routeStats
	spans   *spanLog
}

// startMarket starts a marketplace server. With spans non-nil the
// server's handler and the requester's transport are wrapped in clocks.
func startMarket(spans *spanLog) (*market, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	m := &market{
		url:       "http://" + ln.Addr().String(),
		served:    make(chan error, 1),
		transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		spans:     spans,
	}
	var h http.Handler = crowdserve.NewServer().Handler()
	if spans != nil {
		m.rpc, m.handler = newRouteStats(), newRouteStats()
		h = &handlerClock{inner: h, stats: m.handler, spans: spans}
	}
	m.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { m.served <- m.srv.Serve(ln) }()
	return m, nil
}

// close shuts the server down and waits until Serve has returned.
func (m *market) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := m.srv.Shutdown(ctx)
	if serr := <-m.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	m.transport.CloseIdleConnections()
	return err
}

// client returns a fresh requester-side platform for one session.
func (m *market) client() *crowdserve.Client {
	c := crowdserve.NewClient(m.url)
	c.PollInterval = pollInterval
	c.MaxPollInterval = maxPollInterval
	var rt http.RoundTripper = m.transport
	if m.rpc != nil {
		rt = &rpcClock{inner: rt, stats: m.rpc, spans: m.spans}
	}
	c.HTTPClient = &http.Client{Transport: rt}
	return c
}

// startWorker runs one perfectly reliable simulated worker answering
// from d until the returned stop function is called; stop returns once
// the worker has exited.
func (m *market) startWorker(d *dataset.Dataset, seed int64) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		crowdserve.SimulateWorkers(ctx, m.url, crowdserve.WorkerConfig{
			Count:        1,
			Truth:        crowd.DatasetTruth{Data: d},
			Reliability:  1,
			PollInterval: workerPoll,
			Seed:         seed,
		})
	}()
	return func() {
		cancel()
		<-done
	}
}
