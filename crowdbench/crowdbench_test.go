package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"crowdsky"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
)

// TestWrappersChangeNothing runs each scheduler on a noisy crowd with
// and without the recording platform, and through the core entry point
// on a shared index, and demands identical results.
func TestWrappersChangeNothing(t *testing.T) {
	d, err := crowdsky.Generate(crowdsky.GenerateConfig{
		N: 300, KnownDims: knownDims, CrowdDims: crowdDims, Distribution: dataset.AntiCorrelated,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	c := &benchCase{d: d, crowdSeed: 99}
	for _, p := range []crowdsky.Parallelism{crowdsky.Serial, crowdsky.ByDominatingSets, crowdsky.BySkylineLayers} {
		b := &bench{w: workload{parallelism: p, reliability: 0.8, omega: 5}}
		plain, err := crowdsky.Run(d, b.platform(c, nil), b.w.config())
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := crowdsky.Run(d, newRecorder(b.platform(c, nil), newSpanLog()), b.w.config())
		if err != nil {
			t.Fatal(err)
		}
		viaCore, err := b.coreRun(c, newRecorder(b.platform(c, nil), newSpanLog()), skyline.NewIndex(d))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*crowdsky.Result{"recorder": wrapped, "core with shared index": viaCore} {
			if !sameResult(got, plain) || got.Contradictions != plain.Contradictions {
				t.Errorf("%v: %s run differs: %+v, unwrapped %+v", p, name, got, plain)
			}
		}
	}
}

// TestServedWrappersChangeNothing runs one served session through the
// plain marketplace and one through the clocked one.
func TestServedWrappersChangeNothing(t *testing.T) {
	w, _ := workloadByName("serve_dset2k")
	b, err := setup(w, w.smokeN, 3, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	c := &b.cases[0]
	plain, err := b.run(c, b.market, nil)
	if err != nil {
		t.Fatal(err)
	}
	clocked, err := b.run(c, b.clocked, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(plain.res, clocked.res) || !sameResult(plain.res, c.want) {
		t.Errorf("served results differ: plain %+v, clocked %+v, in-process %+v", plain.res, clocked.res, c.want)
	}
	if b.clocked.handler.snapshot().callsTotal() == 0 {
		t.Error("the clocked handler saw no request")
	}
	if b.clocked.rpc.snapshot().callsTotal() == 0 {
		t.Error("the clocked transport saw no request")
	}
}

// TestSmoke runs every workload at its tiny size in both passes and
// checks that every metric is reported and every gate passes.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := measure(options{
				workload: w.name, seed: 5, seconds: 0.2, trace: trace, smoke: true,
				spans: filepath.Join(t.TempDir(), "spans.jsonl"),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := rep.Metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.name)
				}
			}
			if !trace && rep.Metrics["run_s"].Value <= 0 {
				t.Errorf("%s: run_s = %v", w.name, rep.Metrics["run_s"].Value)
			}
		}
	}
}

// TestGates feeds the gates results they must reject.
func TestGates(t *testing.T) {
	w, _ := workloadByName("sl_ind10k")
	b, err := setup(w, w.smokeN, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	c := &b.cases[0]
	good, err := b.run(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(c, good); err != nil {
		t.Fatalf("a correct run fails the gates: %v", err)
	}

	wrong := good
	res := *good.res
	res.Skyline = res.Skyline[1:]
	wrong.res = &res
	if b.check(c, wrong) == nil {
		t.Error("a skyline that differs from the oracle passes")
	}

	repeated := good
	repeated.rec = newRecorder(crowdsky.NewPerfectCrowd(c.d), nil)
	q := []crowd.Request{{Q: crowd.Question{A: 1, B: 2}, Workers: 1}}
	repeated.rec.Ask(q)
	repeated.rec.Ask([]crowd.Request{{Q: crowd.Question{A: 2, B: 1}, Workers: 1}})
	if b.check(c, repeated) == nil {
		t.Error("a question asked again in a later round passes")
	}

	c.first = good.res
	other := good
	res2 := *good.res
	res2.Questions++
	other.res = &res2
	if b.check(c, other) == nil {
		t.Error("a run that does not repeat the first result passes")
	}
}

// TestPanicIsAFailedOperation closes the marketplace under a served
// session: the client's panic must come back as a failed round.
func TestPanicIsAFailedOperation(t *testing.T) {
	w, _ := workloadByName("serve_dset2k")
	b, err := setup(w, w.smokeN, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.market.close(); err != nil {
		t.Fatal(err)
	}
	out, err := b.run(&b.cases[0], b.market, nil)
	if err == nil {
		t.Fatal("a session against a closed marketplace succeeded")
	}
	var tl tally
	tl.add(b, out, err)
	if tl.failed == 0 || tl.failed != tl.attempted {
		t.Errorf("attempted=%d failed=%d, want every operation failed", tl.attempted, tl.failed)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, e := range spec.Workloads {
		if _, ok := workloadByName(e.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", e.Name)
		}
	}
	for _, tc := range []struct {
		what string
		spec []entry
		prog []metric
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(tc.spec) != len(tc.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.what, len(tc.spec), len(tc.prog))
			continue
		}
		for i, e := range tc.spec {
			if e.Name != tc.prog[i].name || e.Unit != tc.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					tc.what, i, e.Name, e.Unit, tc.prog[i].name, tc.prog[i].unit)
			}
		}
	}
}
