package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"

	"crowdsky"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
)

// Every dataset has four known attributes and one crowd attribute, and
// every run uses full pruning (P1+P2+P3).
const (
	knownDims = 4
	crowdDims = 1
	// setupReps is how often a benchmark process sets up; setup_s is the
	// median, and the last set-up serves the measured runs.
	setupReps = 3
	// warmupN is the size of the dataset each set-up runs once, untimed,
	// so code paths, pools and connections are warm before timing.
	warmupN = 200
)

// workload is one named input shape. Each is chosen so that one layer a
// later change is likely to optimise does most of its work, while
// another workload bypasses that layer.
type workload struct {
	name        string
	dist        dataset.Distribution
	n, smokeN   int
	parallelism crowdsky.Parallelism
	reliability float64 // 1 means a perfect crowd
	omega       int     // workers per question under static voting
	// cases is the number of datasets one benchmark process runs, each
	// with its own dataset and crowd seed. Averaging the counts over a
	// few datasets keeps their spread across workload seeds small.
	cases  int
	served bool
}

var workloads = []workload{
	// The machine part: c(t) dominates the run and the perfect crowd
	// makes the oracle check exact.
	{name: "sl_ind10k", dist: dataset.Independent, n: 10000, smokeN: 300,
		parallelism: crowdsky.BySkylineLayers, reliability: 1, omega: 1, cases: 6},
	// The crowd-answer path: one question per round, ~14k answers folded
	// into the preference graph, noisy workers under the paper's static
	// 5-worker voting. c(t) is never computed and the index is small.
	{name: "serial_ant10k_noisy", dist: dataset.AntiCorrelated, n: 10000, smokeN: 300,
		parallelism: crowdsky.Serial, reliability: 0.8, omega: 5, cases: 4},
	// The marketplace path: HTTP, JSON, leases and poll cadence, with one
	// requester and one worker in a closed loop on loopback.
	{name: "serve_dset2k", dist: dataset.Independent, n: 2000, smokeN: 150,
		parallelism: crowdsky.ByDominatingSets, reliability: 1, omega: 1, cases: 4, served: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) config() crowdsky.RunConfig {
	return crowdsky.RunConfig{Parallelism: w.parallelism, Voting: crowdsky.StaticVoting(w.omega)}
}

// benchCase is one dataset with everything needed to grade a run on it.
type benchCase struct {
	d         *dataset.Dataset
	crowdSeed int64
	oracle    []int
	known     []int
	// want is the in-process perfect-crowd run on d under the same
	// configuration; the served workload must reproduce it exactly.
	want *crowdsky.Result
	// first is the first measured result; every later run of the case
	// must repeat it.
	first *crowdsky.Result
}

// bench is one set-up workload: its cases and, when served, the
// marketplace. clocked is the marketplace whose handler and requester
// transport are timed (traced pass only).
type bench struct {
	w       workload
	cases   []benchCase
	market  *market
	clocked *market
	// genTime is the time spent generating the cases' datasets.
	genTime time.Duration
}

// setup derives every dataset and crowd seed from seed, generates the
// datasets, computes their oracle skylines, starts the marketplace when
// served, and runs one untimed warm-up. spans non-nil also starts the
// clocked marketplace of the traced pass.
func setup(w workload, n int, seed int64, spans *spanLog) (b *bench, err error) {
	b = &bench{w: w}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < w.cases; i++ {
		dataSeed, crowdSeed := rng.Int63(), rng.Int63()
		c, gen, err := b.newCase(n, dataSeed, crowdSeed)
		if err != nil {
			return nil, err
		}
		b.cases = append(b.cases, c)
		b.genTime += gen
	}
	warm, _, err := b.newCase(min(n, warmupN), rng.Int63(), rng.Int63())
	if err != nil {
		return nil, err
	}
	if w.served {
		if b.market, err = startMarket(nil); err != nil {
			return nil, err
		}
		if spans != nil {
			if b.clocked, err = startMarket(spans); err != nil {
				return nil, err
			}
		}
		for i := range b.cases {
			c := &b.cases[i]
			if c.want, err = crowdsky.Run(c.d, crowdsky.NewPerfectCrowd(c.d), w.config()); err != nil {
				return nil, fmt.Errorf("in-process reference run: %w", err)
			}
		}
		if warm.want, err = crowdsky.Run(warm.d, crowdsky.NewPerfectCrowd(warm.d), w.config()); err != nil {
			return nil, fmt.Errorf("in-process reference run: %w", err)
		}
	}
	out, err := b.run(&warm, b.market, nil)
	if err == nil {
		err = b.check(&warm, out)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return b, nil
}

// newCase generates one dataset and grades it; gen is the generation
// time alone.
func (b *bench) newCase(n int, dataSeed, crowdSeed int64) (c benchCase, gen time.Duration, err error) {
	start := time.Now()
	d, err := crowdsky.Generate(crowdsky.GenerateConfig{
		N: n, KnownDims: knownDims, CrowdDims: crowdDims, Distribution: b.w.dist,
	}, rand.New(rand.NewSource(dataSeed)))
	gen = time.Since(start)
	if err != nil {
		return c, gen, fmt.Errorf("generating dataset: %w", err)
	}
	if !d.DistinctKnown() {
		// The traced pass hands core a prebuilt index, which core adopts
		// only when the degenerate prepass removes no tuple.
		return c, gen, fmt.Errorf("dataset seed %d has tuples equal on every known attribute", dataSeed)
	}
	c = benchCase{d: d, crowdSeed: crowdSeed, oracle: crowdsky.Oracle(d), known: crowdsky.KnownSkyline(d)}
	return c, gen, nil
}

func (b *bench) close() {
	for _, m := range []*market{b.market, b.clocked} {
		if m != nil {
			m.close()
		}
	}
}

// runOutput is one crowdsky run with what was recorded around it.
type runOutput struct {
	res  *crowdsky.Result
	wall time.Duration
	rec  *recorder
	// pf is the platform under the recorder; on the noisy workload a
	// *crowd.Simulated that counts its wrong answers.
	pf crowd.Platform
}

// platform builds the crowd for one run on c: the marketplace client
// when served (the caller starts the worker), else a simulated crowd.
func (b *bench) platform(c *benchCase, m *market) crowd.Platform {
	switch {
	case b.w.served:
		return m.client()
	case b.w.reliability == 1:
		return crowdsky.NewPerfectCrowd(c.d)
	default:
		return crowdsky.NewSimulatedCrowd(c.d, crowdsky.CrowdConfig{
			Reliability: b.w.reliability, Seed: c.crowdSeed,
		})
	}
}

// run makes one timed crowdsky.Run on c, through the marketplace m when
// served. tracer is nil except in the telemetry-overhead run. A panic —
// the marketplace client's way of reporting errors — is recovered and
// returned.
func (b *bench) run(c *benchCase, m *market, tracer crowdsky.Tracer) (out runOutput, err error) {
	out.pf = b.platform(c, m)
	out.rec = newRecorder(out.pf, nil)
	if b.w.served {
		stop := m.startWorker(c.d, c.crowdSeed)
		defer stop()
	}
	cfg := b.w.config()
	cfg.Tracer = tracer
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	start := time.Now()
	out.res, err = crowdsky.Run(c.d, out.rec, cfg)
	out.wall = time.Since(start)
	return out, err
}

// check applies the correctness gates to one run on c.
func (b *bench) check(c *benchCase, out runOutput) error {
	res := out.res
	if b.w.reliability == 1 && !slices.Equal(res.Skyline, c.oracle) {
		return fmt.Errorf("perfect-crowd skyline (%d tuples) differs from the oracle (%d tuples)",
			len(res.Skyline), len(c.oracle))
	}
	if c.want != nil && !sameResult(res, c.want) {
		return fmt.Errorf("served run (%d questions, %d rounds) differs from the in-process run (%d questions, %d rounds)",
			res.Questions, res.Rounds, c.want.Questions, c.want.Rounds)
	}
	if r := out.rec.repeats(); r != 0 {
		return fmt.Errorf("%d questions asked again after they were answered", r)
	}
	if c.first != nil && !sameResult(res, c.first) {
		return fmt.Errorf("a repeated run on the same dataset and crowd seed gave a different result")
	}
	return nil
}

// sameResult compares what a run reports: skyline, questions, rounds and
// worker answers.
func sameResult(a, b *crowdsky.Result) bool {
	return slices.Equal(a.Skyline, b.Skyline) && a.Questions == b.Questions &&
		a.Rounds == b.Rounds && a.WorkerAnswers == b.WorkerAnswers
}

func f1(c *benchCase, res *crowdsky.Result) float64 {
	p, r := crowdsky.PrecisionRecall(res.Skyline, c.oracle, c.known)
	return metrics.F1(p, r)
}

// tally counts operations: a run, or a round on the served workload.
type tally struct {
	attempted, failed int
	firstErr          error
}

// add books one run. On the served workload each round is an
// operation: a round fails when its Ask panicked or its session failed a
// gate.
func (t *tally) add(b *bench, out runOutput, err error) {
	ops := 1
	if b.w.served {
		ops = len(out.rec.rounds)
		if ops == 0 || (err != nil && out.res == nil) {
			ops++ // the round whose Ask panicked never reached the log
		}
	}
	t.attempted += ops
	if err != nil {
		t.failed += ops
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// timed holds what the measured runs produced. runs and allocs hold
// one sample list per case; rounds holds the latency of every Ask, in
// milliseconds.
type timed struct {
	runs, allocs [][]float64
	rounds       []float64
	tally
}

// timedPass cycles through the cases, one crowdsky.Run each, until at
// least one run per case has been made and the time is up. Runs keep
// tracing off and build their own index.
func (b *bench) timedPass(seconds float64) timed {
	t := timed{runs: make([][]float64, len(b.cases)), allocs: make([][]float64, len(b.cases))}
	start := time.Now()
	for i := 0; i < len(b.cases) || time.Since(start).Seconds() < seconds; i++ {
		k := i % len(b.cases)
		c := &b.cases[k]
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := b.run(c, b.market, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			err = b.check(c, out)
		}
		t.add(b, out, err)
		if err != nil {
			continue
		}
		if c.first == nil {
			c.first = out.res
		}
		t.runs[k] = append(t.runs[k], out.wall.Seconds())
		t.allocs[k] = append(t.allocs[k], float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		for _, rd := range out.rec.rounds {
			t.rounds = append(t.rounds, rd.end.Sub(rd.start).Seconds()*1e3)
		}
	}
	return t
}

// endToEnd turns a timed pass into the end-to-end metrics. Every case
// weighs the same whether the time allowed it one run or more: run_s
// and alloc_mb are the mean over cases of each case's median, and the
// counts and f1 are the mean over cases of the first run.
func (b *bench) endToEnd(t timed, setups []float64) map[string]float64 {
	var q, r, wa, f float64
	for i := range b.cases {
		c := &b.cases[i]
		if c.first == nil {
			continue
		}
		q += float64(c.first.Questions)
		r += float64(c.first.Rounds)
		wa += float64(c.first.WorkerAnswers)
		f += f1(c, c.first)
	}
	k := float64(len(b.cases))
	return map[string]float64{
		"run_s":          meanOfMedians(t.runs),
		"questions":      q / k,
		"rounds":         r / k,
		"worker_answers": wa / k,
		"f1":             f / k,
		"alloc_mb":       meanOfMedians(t.allocs),
		"max_rss_mb":     maxRSSMB(),
		"round_ms_p50":   quantile(t.rounds, 0.5),
		"round_ms_p75":   quantile(t.rounds, 0.75),
		"setup_s":        median(setups),
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func meanOfMedians(vs [][]float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += median(v)
	}
	return ratio(sum, float64(len(vs)))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
