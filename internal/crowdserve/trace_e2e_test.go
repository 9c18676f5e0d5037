package crowdserve

import (
	"context"
	"testing"
	"time"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/telemetry"
)

// TestCrossProcessTrace runs the full algorithm over the HTTP marketplace
// with tracing on both sides and asserts the ISSUE acceptance criterion:
// the client and the server emit spans under ONE shared trace ID
// (propagated via the traceparent header), and the root run span's
// duration matches the run_start→run_end frame.
func TestCrossProcessTrace(t *testing.T) {
	srv, ts := newTestServer(t)
	serverTrace := &telemetry.Collector{}
	srv.SetTracer(serverTrace)

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
	clientTrace := &telemetry.Collector{}
	opts := core.AllPruning()
	opts.Tracer = clientTrace
	res := core.ParallelSL(d, client, opts)

	cancel()
	<-workersDone

	if res.Rounds == 0 {
		t.Fatal("run made no rounds; nothing to trace")
	}

	// One trace ID across every client-side span.
	clientSpans := clientTrace.ByType(telemetry.EventSpanEnd)
	if len(clientSpans) == 0 {
		t.Fatal("client emitted no spans")
	}
	traceID := clientSpans[0].TraceID
	names := map[string]int{}
	for _, e := range clientSpans {
		if e.TraceID != traceID {
			t.Fatalf("client span %q has trace %s, want %s", e.Name, e.TraceID, traceID)
		}
		names[e.Name]++
	}
	for _, want := range []string{"run", "round", "round_submit", "round_wait"} {
		if names[want] == 0 {
			t.Errorf("client trace missing %q span (have %v)", want, names)
		}
	}
	if names["round"] != res.Rounds {
		t.Errorf("%d round spans, want one per round (%d)", names["round"], res.Rounds)
	}

	// The server, a separate process boundary away, joined the SAME trace
	// via the traceparent header.
	// Worker polls carry no traceparent, so their http spans start fresh
	// traces — the crowd-lifecycle spans are the ones that must have
	// joined the client's trace.
	serverSpans := serverTrace.ByType(telemetry.EventSpanEnd)
	if len(serverSpans) == 0 {
		t.Fatal("server emitted no spans")
	}
	lifecycle := map[string]bool{
		"server_round": true, "lease_wait": true,
		"judgment": true, "vote_resolve": true,
	}
	srvNames := map[string]int{}
	for _, e := range serverSpans {
		if !lifecycle[e.Name] {
			continue
		}
		if e.TraceID != traceID {
			t.Fatalf("server span %q has trace %s, want the client's %s", e.Name, e.TraceID, traceID)
		}
		srvNames[e.Name]++
	}
	for _, want := range []string{"server_round", "lease_wait", "judgment", "vote_resolve"} {
		if srvNames[want] == 0 {
			t.Errorf("server trace missing %q span (have %v)", want, srvNames)
		}
	}
	if srvNames["judgment"] != res.Questions {
		t.Errorf("%d judgment spans, want one per question (%d)", srvNames["judgment"], res.Questions)
	}

	// Root run span duration matches the run_start→run_end event frame.
	events := clientTrace.Events()
	if events[0].Type != telemetry.EventRunStart {
		t.Fatalf("first event is %s, want run_start", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != telemetry.EventRunEnd {
		t.Fatalf("last event is %s, want run_end", last.Type)
	}
	var runSpan *telemetry.Event
	for i := range clientSpans {
		if clientSpans[i].Name == "run" {
			runSpan = &clientSpans[i]
		}
	}
	if runSpan == nil {
		t.Fatal("no run span")
	}
	if runSpan.ParentID != "" {
		t.Errorf("run span has parent %s, want root", runSpan.ParentID)
	}
	frame := last.Time.Sub(events[0].Time)
	if frame <= 0 {
		t.Fatalf("run_start→run_end event frame is %v; events must carry emission times", frame)
	}
	spanDur := time.Duration(runSpan.DurationMS * float64(time.Millisecond))
	if diff := (frame - spanDur).Abs(); diff > 50*time.Millisecond {
		t.Errorf("run span duration %v vs event frame %v (diff %v)", spanDur, frame, diff)
	}

	// Server-side parenting: every server_round hangs off a client-side
	// http span or directly off the propagated remote span context.
	clientIDs := map[string]bool{}
	for _, e := range clientSpans {
		clientIDs[e.SpanID] = true
	}
	starts := serverTrace.ByType(telemetry.EventSpanStart)
	serverIDs := map[string]bool{}
	for _, e := range starts {
		serverIDs[e.SpanID] = true
	}
	for _, e := range starts {
		if e.Name != "server_round" {
			continue
		}
		if e.ParentID == "" {
			t.Error("server_round span is a root; traceparent parenting lost")
		} else if !clientIDs[e.ParentID] && !serverIDs[e.ParentID] {
			t.Errorf("server_round parent %s not found on either side", e.ParentID)
		}
	}
}
