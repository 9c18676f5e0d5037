// Command crowdbench is the repository's end-to-end benchmark. One
// invocation sets up one named workload, measures crowdsky runs on it
// for a fixed time, checks every result, and prints its metrics:
//
//	crowdbench --workload sl_ind10k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the runs keep tracing off and the end-to-end metrics
// are printed; with --trace 1 a separate traced pass times each layer
// from outside and the per-layer metrics are printed. The last line of
// standard output is one JSON object; a readable table goes to standard
// error. Any failed correctness gate makes the command exit with 1.
//
// Build and run it from the repository root with crowdbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

var endToEndMetrics = []metric{
	{"run_s", "s"},
	{"questions", "count"},
	{"rounds", "count"},
	{"worker_answers", "count"},
	{"f1", "ratio"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"round_ms_p50", "ms"},
	{"round_ms_p75", "ms"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metric{
	{"dataset.generate_s", "s"},
	{"skyline.index_build_s", "s"},
	{"skyline.dsets_s", "s"},
	{"skyline.cdom_s", "s"},
	{"skyline.pairs", "count"},
	{"skyline.ds_total", "count"},
	{"skyline.cdom_total", "count"},
	{"skyline.bitmap_mb", "MB"},
	{"core.self_s", "s"},
	{"core.prune_ratio", "ratio"},
	{"core.questions_per_round", "count"},
	{"prefgraph.fold_s", "s"},
	{"prefgraph.edges", "count"},
	{"prefgraph.contradictions", "count"},
	{"crowd.ask_s", "s"},
	{"crowd.max_round_size", "count"},
	{"crowd.wrong_frac", "ratio"},
	{"crowd.repeat_questions", "count"},
	{"voting.workers_per_question", "count"},
	{"serve.client_rpc_s", "s"},
	{"serve.client_wait_s", "s"},
	{"serve.polls_per_round", "count"},
	{"serve.work_empty_frac", "ratio"},
	{"serve.handler_s.post_round", "s"},
	{"serve.handler_s.get_round", "s"},
	{"serve.handler_s.get_work", "s"},
	{"serve.handler_s.post_answer", "s"},
	{"serve.calls.post_round", "count"},
	{"serve.calls.get_round", "count"},
	{"serve.calls.get_work", "count"},
	{"serve.calls.post_answer", "count"},
	{"serve.requests_per_s", "1/s"},
	{"serve.http_errors", "count"},
	{"telemetry.overhead_frac", "ratio"},
	{"telemetry.events", "count"},
	{"telemetry.trace_mb", "MB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"error_rate", "ratio"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	spans    string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sl_ind10k, serial_ant10k_noisy or serve_dset2k")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every dataset and crowd seed is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "run the workload at a tiny n (a quick check of every metric and gate)")
	flag.StringVar(&o.spans, "spans", "", "file the traced pass writes its spans to (default .bench_build/spans-<workload>-<seed>.jsonl)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "crowdbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", o.workload, o.seed)
	}
	rep, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench: encoding the result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// measure sets the workload up setupReps times, keeps the last set-up,
// and runs the timed or the traced pass on it.
func measure(o options) (*report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	n := w.n
	if o.smoke {
		n = w.smokeN
	}
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	var setups, gens []float64
	var b *bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = setup(w, n, o.seed, spans); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, b.genTime.Seconds())
	}
	defer b.close()
	logf("workload %s: n=%d, %d datasets, seed %d, GOMAXPROCS=%d, NumCPU=%d",
		w.name, n, len(b.cases), o.seed, runtime.GOMAXPROCS(0), runtime.NumCPU())

	rep := &report{Metrics: make(map[string]value)}
	var t tally
	if o.trace {
		s := b.tracedPass(o.seconds, spans)
		vals := b.perLayer(s, b.clocked, median(gens))
		fill(rep, perLayerMetrics, vals)
		t = s.tally
		logf("traced pass: %d runs", s.runs)
		if err := writeSpans(o.spans, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		logf("spans written to %s", o.spans)
	} else {
		tp := b.timedPass(o.seconds)
		vals := b.endToEnd(tp, setups)
		fill(rep, endToEndMetrics, vals)
		t = tp.tally
		var all []float64
		for _, r := range tp.runs {
			all = append(all, r...)
		}
		logf("timed pass: %d runs over %d datasets, %d round samples, %d set-ups",
			len(all), len(tp.runs), len(tp.rounds), len(setups))
		logf("run wall time quartiles (s): %.4g %.4g %.4g %.4g %.4g", quantile(all, 0), quantile(all, 0.25),
			median(all), quantile(all, 0.75), quantile(all, 1))
		logf("error_rate %.4g (%d of %d operations failed)",
			ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed
	rep.Correct = t.failed == 0 && t.attempted > 0
	if t.firstErr != nil {
		logf("FAILED: %v", t.firstErr)
	}
	return rep, nil
}

func fill(rep *report, ms []metric, vals map[string]float64) {
	for _, m := range ms {
		v := vals[m.name]
		rep.Metrics[m.name] = value{Value: v, Unit: m.unit}
		logf("  %-30s %14.6g %s", m.name, v, m.unit)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
