package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crowdsky"
	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/prefgraph"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

// layerSums accumulates the traced pass over its runs; perLayer divides
// by the run count.
type layerSums struct {
	runs int
	// walls: the untraced run, the traced run (index build + DS(t) +
	// core call; the separate c(t) call is not part of it) and the run
	// with the JSONL tracer on.
	untraced, traced, jsonl time.Duration

	indexBuild, dsets, cdom, core, ask, fold time.Duration
	pairs, dsTotal, cdomTotal                int
	bitmapBytes                              int64
	questions, rounds, workerAnswers         int
	maxRoundSize, wrong, repeats             int
	edges, contradictions                    int
	events, traceBytes                       int
	tally
}

// tracedPass measures every layer from outside, cycling through the
// cases until at least one is done and the time is up. Per case it
// makes an untraced run for reference, then the traced run: the index
// is built with skyline.NewIndex, DS(t) and (for skyline layers) c(t)
// are derived from it with each call timed, and the core entry point
// runs on that index behind a recording platform. The recorded answers
// are then replayed into fresh preference graphs, and one more run with
// the JSONL tracer measures the program's own tracing.
func (b *bench) tracedPass(seconds float64, spans *spanLog) layerSums {
	var s layerSums
	start := time.Now()
	for i := 0; i < 1 || time.Since(start).Seconds() < seconds; i++ {
		c := &b.cases[i%len(b.cases)]
		spans.nextRun()
		base, err := b.run(c, b.market, nil)
		if err == nil {
			err = b.check(c, base)
		}
		s.add(b, base, err)
		if err != nil {
			continue
		}
		if c.first == nil {
			c.first = base.res
		}
		if err := b.traceCase(c, base, spans, &s); err != nil {
			// The traced run counts as one more operation.
			s.attempted++
			s.failed++
			if s.firstErr == nil {
				s.firstErr = err
			}
			continue
		}
		s.runs++
	}
	return s
}

// traceCase makes the traced run on c and adds its layers to s; base is
// the untraced run it must reproduce.
func (b *bench) traceCase(c *benchCase, base runOutput, spans *spanLog, s *layerSums) error {
	t0 := time.Now()
	ix := skyline.NewIndex(c.d)
	indexBuild := spans.add("skyline", "index_build", t0)
	t1 := time.Now()
	sets := ix.DominatingSets()
	dsets := spans.add("skyline", "dominating_sets", t1)
	var cdom time.Duration
	cdomTotal := 0
	if b.w.parallelism == crowdsky.BySkylineLayers {
		t2 := time.Now()
		imm := ix.ImmediateDominators()
		cdom = spans.add("skyline", "immediate_dominators", t2)
		for _, im := range imm {
			cdomTotal += len(im)
		}
	}

	m := b.clocked
	pf := b.platform(c, m)
	rec := newRecorder(pf, spans)
	if b.w.served {
		stop := m.startWorker(c.d, c.crowdSeed)
		defer stop()
	}
	t3 := time.Now()
	res, err := b.coreRun(c, rec, ix)
	coreDur := spans.add("core", "run", t3)
	if err != nil {
		return err
	}
	if !sameResult(res, base.res) {
		return fmt.Errorf("the traced run (%d questions, %d rounds) differs from the untraced one (%d, %d)",
			res.Questions, res.Rounds, base.res.Questions, base.res.Rounds)
	}
	repeats := rec.repeats()
	s.repeats += repeats
	if repeats != 0 {
		return fmt.Errorf("%d questions asked again after they were answered", repeats)
	}

	t4 := time.Now()
	graphs := replay(c.d.N(), c.d.CrowdDims(), rec)
	fold := spans.add("prefgraph", "fold", t4)
	edges, contradictions := 0, 0
	for _, g := range graphs {
		edges += g.Edges()
		contradictions += g.Contradictions()
	}
	if contradictions != res.Contradictions {
		return fmt.Errorf("replaying the recorded answers gave %d contradictions, the run reported %d",
			contradictions, res.Contradictions)
	}

	var trace countingWriter
	tracer := crowdsky.NewJSONLTracer(&trace)
	jl, err := b.run(c, b.market, tracer)
	if err == nil {
		err = crowdsky.TracerErr(tracer)
	}
	if err != nil {
		return fmt.Errorf("run with the JSONL tracer: %w", err)
	}

	st := ix.Stats()
	s.untraced += base.wall
	s.traced += indexBuild + dsets + coreDur
	s.jsonl += jl.wall
	s.indexBuild += indexBuild
	s.dsets += dsets
	s.cdom += cdom
	s.core += coreDur
	s.ask += rec.askTime()
	s.fold += fold
	s.pairs += st.Pairs
	s.bitmapBytes += st.BitmapBytes
	for _, ds := range sets {
		s.dsTotal += len(ds)
	}
	s.cdomTotal += cdomTotal
	s.questions += res.Questions
	s.rounds += res.Rounds
	s.workerAnswers += res.WorkerAnswers
	s.maxRoundSize = max(s.maxRoundSize, pf.Stats().MaxRoundSize())
	if sim, ok := pf.(*crowd.Simulated); ok {
		s.wrong += sim.Mistakes()
	}
	s.edges += edges
	s.contradictions += contradictions
	s.events += trace.lines
	s.traceBytes += trace.bytes
	return nil
}

// coreRun calls the core entry point the way crowdsky.Run does, with
// the prebuilt index shared through core.Options.
func (b *bench) coreRun(c *benchCase, pf crowd.Platform, ix *skyline.Index) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("traced run panicked: %v", p)
		}
	}()
	opts := core.Options{P1: true, P2: true, P3: true, Voting: voting.Static{Omega: b.w.omega}, Index: ix}
	switch b.w.parallelism {
	case crowdsky.Serial:
		return core.CrowdSky(c.d, pf, opts), nil
	case crowdsky.ByDominatingSets:
		return core.ParallelDSet(c.d, pf, opts), nil
	default:
		return core.ParallelSL(c.d, pf, opts), nil
	}
}

// replay folds the recorded answers, in order, into fresh preference
// graphs, one per crowd attribute.
func replay(n, attrs int, rec *recorder) []*prefgraph.Graph {
	graphs := make([]*prefgraph.Graph, attrs)
	for j := range graphs {
		graphs[j] = prefgraph.New(n)
	}
	for _, a := range rec.answers {
		g := graphs[a.Q.Attr]
		switch a.Pref {
		case crowd.First:
			g.AddPrefer(a.Q.A, a.Q.B)
		case crowd.Second:
			g.AddPrefer(a.Q.B, a.Q.A)
		case crowd.Equal:
			g.AddEqual(a.Q.A, a.Q.B)
		}
	}
	return graphs
}

// countingWriter discards what the JSONL tracer writes and counts it.
type countingWriter struct{ bytes, lines int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// perLayer turns the traced pass into the per-layer metrics, each a
// per-run mean unless it is a ratio.
func (b *bench) perLayer(s layerSums, m *market, genSeconds float64) map[string]float64 {
	k := float64(max(s.runs, 1))
	sec := func(d time.Duration) float64 { return d.Seconds() / k }
	// The run folds its answers into its own preference graphs, so the
	// replayed fold is subtracted from core's time like the other layers
	// core calls into.
	self := s.core - s.ask - s.cdom - s.fold
	out := map[string]float64{
		"dataset.generate_s":          genSeconds,
		"skyline.index_build_s":       sec(s.indexBuild),
		"skyline.dsets_s":             sec(s.dsets),
		"skyline.cdom_s":              sec(s.cdom),
		"skyline.pairs":               float64(s.pairs) / k,
		"skyline.ds_total":            float64(s.dsTotal) / k,
		"skyline.cdom_total":          float64(s.cdomTotal) / k,
		"skyline.bitmap_mb":           float64(s.bitmapBytes) / k / (1 << 20),
		"core.self_s":                 sec(self),
		"core.prune_ratio":            ratio(float64(s.questions), float64(s.dsTotal)),
		"core.questions_per_round":    ratio(float64(s.questions), float64(s.rounds)),
		"prefgraph.fold_s":            sec(s.fold),
		"prefgraph.edges":             float64(s.edges) / k,
		"prefgraph.contradictions":    float64(s.contradictions) / k,
		"crowd.ask_s":                 sec(s.ask),
		"crowd.max_round_size":        float64(s.maxRoundSize),
		"crowd.wrong_frac":            ratio(float64(s.wrong), float64(s.questions)),
		"crowd.repeat_questions":      float64(s.repeats),
		"voting.workers_per_question": ratio(float64(s.workerAnswers), float64(s.questions)),
		"telemetry.overhead_frac":     ratio(float64(s.jsonl-s.untraced), float64(s.untraced)),
		"telemetry.events":            float64(s.events) / k,
		"telemetry.trace_mb":          float64(s.traceBytes) / k / (1 << 20),
		"trace.coverage":              ratio(float64(s.indexBuild+s.dsets+s.cdom+s.ask+s.fold), float64(s.traced)),
		"trace.overhead_frac":         ratio(float64(s.traced-s.untraced), float64(s.untraced)),
		"error_rate":                  ratio(float64(s.failed), float64(s.attempted)),
		"serve.client_rpc_s":          0,
		"serve.client_wait_s":         0,
		"serve.polls_per_round":       0,
		"serve.work_empty_frac":       0,
		"serve.requests_per_s":        0,
		"serve.http_errors":           0,
	}
	for _, r := range routes {
		out["serve.handler_s."+r] = 0
		out["serve.calls."+r] = 0
	}
	if m == nil {
		return out
	}
	rpc := m.rpc.snapshot()
	h := m.handler.snapshot()
	out["serve.client_rpc_s"] = sec(rpc.busyTotal())
	out["serve.client_wait_s"] = sec(s.ask - rpc.busyTotal())
	out["serve.polls_per_round"] = ratio(float64(rpc.calls[routeGetRound]), float64(s.rounds))
	out["serve.work_empty_frac"] = ratio(float64(h.empty), float64(h.calls[routeGetWork]))
	out["serve.requests_per_s"] = ratio(float64(h.callsTotal()), s.core.Seconds())
	out["serve.http_errors"] = float64(h.errors + rpc.errors)
	for _, r := range routes {
		out["serve.handler_s."+r] = sec(h.busy[r])
		out["serve.calls."+r] = float64(h.calls[r]) / k
	}
	return out
}

// writeSpans writes the traced pass's spans as JSON lines.
func writeSpans(path string, spans *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans.mu.Lock()
	defer spans.mu.Unlock()
	for _, sp := range spans.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
