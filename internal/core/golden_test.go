package core

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/voting"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// goldenPath holds one line per configuration of the exactness matrix:
// the configuration name, questions, rounds, worker answers, skyline size
// and an FNV-64a hash of the skyline ids.
const goldenPath = "testdata/golden.txt"

// dupHeavy rebuilds d with every known value rounded to a multiple of 1/8
// (exact duplicates in AK, so the degenerate prepass asks the crowd) and
// every latent value rounded to 1/4 (AC-equal twins). A quarter of the
// known values are then nudged by ±1e-10 or 6e-10: those stay equal to
// their cell under skyline.Eps, and the 6e-10 pairs make Eps-equality
// non-transitive (x ≈ x+6e-10 ≈ x+1.2e-9 but x ≉ x+1.2e-9).
func dupHeavy(d *dataset.Dataset, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	shifts := []float64{1e-10, -1e-10, 6e-10, 1.2e-9}
	known := make([][]float64, d.N())
	latent := make([][]float64, d.N())
	for i := range known {
		known[i] = make([]float64, d.KnownDims())
		for j := range known[i] {
			known[i][j] = math.Round(d.Known(i, j)*8) / 8
			if rng.Intn(4) == 0 {
				known[i][j] += shifts[rng.Intn(len(shifts))]
			}
		}
		latent[i] = make([]float64, d.CrowdDims())
		for j := range latent[i] {
			latent[i][j] = math.Round(d.Latent(i, j)*4) / 4
		}
	}
	return dataset.MustNew(known, latent)
}

// goldenRun is one configuration of the exactness matrix.
type goldenRun struct {
	name string
	run  func() *Result
}

// goldenMatrix enumerates {Serial, ParallelDSet, ParallelSL} × {IND, ANT}
// × {plain, duplicate-heavy} × {perfect, p=0.8 with StaticVoting(3)} ×
// {unlimited, 300-question budget} × {RoundRobinAC off, on} over four
// seeds at n=400 with three known and two crowd attributes.
func goldenMatrix() []goldenRun {
	algos := []struct {
		name string
		fn   func(*dataset.Dataset, crowd.Platform, Options) *Result
	}{{"serial", CrowdSky}, {"dset", ParallelDSet}, {"sl", ParallelSL}}
	var runs []goldenRun
	for seed := int64(1); seed <= 4; seed++ {
		for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
			base := randomDataset(seed, 400, 3, 2, dist)
			for _, dup := range []bool{false, true} {
				d := base
				if dup {
					d = dupHeavy(base, seed)
				}
				for _, noisy := range []bool{false, true} {
					for _, budget := range []int{0, 300} {
						for _, rr := range []bool{false, true} {
							for _, a := range algos {
								opts := AllPruning()
								opts.MaxQuestions = budget
								opts.RoundRobinAC = rr
								if noisy {
									opts.Voting = voting.Static{Omega: 3}
								}
								name := fmt.Sprintf("%s/seed=%d/%v/dup=%t/noisy=%t/budget=%d/rr=%t",
									a.name, seed, dist, dup, noisy, budget, rr)
								runs = append(runs, goldenRun{name, func() *Result {
									var pf crowd.Platform = perfect(d)
									if noisy {
										rng := rand.New(rand.NewSource(seed))
										pool, err := crowd.NewPool(crowd.PoolConfig{Reliability: 0.8}, rng)
										if err != nil {
											panic(err)
										}
										pf = crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
									}
									return a.fn(d, pf, opts)
								}})
							}
						}
					}
				}
			}
		}
	}
	return runs
}

func goldenLine(name string, r *Result) string {
	h := fnv.New64a()
	for _, t := range r.Skyline {
		fmt.Fprintf(h, "%d,", t)
	}
	return fmt.Sprintf("%s q=%d rounds=%d answers=%d sky=%d skyhash=%016x",
		name, r.Questions, r.Rounds, r.WorkerAnswers, len(r.Skyline), h.Sum64())
}

// TestGoldenExactness pins every scheduler's skyline, question count,
// round count and worker-answer count on a fixed matrix to the values in
// testdata/golden.txt, by equality. Performance work on the machine part
// (index, readiness, prepass, scratch layout) must not move any of them:
// a changed request order within a round would already shift a noisy
// crowd's RNG stream and show up here. Regenerate deliberately with
// go test ./internal/core -run TestGoldenExactness -update.
func TestGoldenExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 384 configurations at n=400; skipped with -short")
	}
	var got []string
	for _, gr := range goldenMatrix() {
		got = append(got, goldenLine(gr.name, gr.run()))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matrix has %d configurations, golden file %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
