package prefgraph

import "testing"

// TestZeroAlloc is the CI gate for the per-answer hot path: recording
// preferences — fresh, re-applied and equality merges — and querying the
// closure must not allocate. Every bit set is sized at New, the backward
// walks run on a stack sized with the edge arena, and Reset keeps the
// arena's capacity, so a regression here means a closure or append crept
// back into an insertion path.
func TestZeroAlloc(t *testing.T) {
	const n = 512
	g := New(n)
	// A long chain maximizes closure propagation per insertion; the last
	// two nodes stay free for the equality merge below.
	for v := 1; v < n-2; v++ {
		if !g.AddPrefer(v-1, v) {
			t.Fatalf("chain edge %d->%d rejected", v-1, v)
		}
	}
	propagate := func() {
		g.AddPrefer(0, n/2)  // re-apply of an already-inferable edge
		g.AddEqual(n-2, n-1) // first run merges, later runs are no-ops
		g.AddPrefer(n/4, n-2)
		_ = g.Known(3, n/3)
		_ = g.Prefers(n/3, 3)
		_ = g.WeaklyPrefers(0, n-3)
	}
	if avg := testing.AllocsPerRun(200, propagate); avg != 0 {
		t.Fatalf("propagate allocated %.2f times per run; want 0", avg)
	}

	// A reset graph replays the same answer stream into the capacity its
	// edge arena grew to on the first pass: far more edges than nodes,
	// an equality merge, walks back over merged lists, re-applied edges.
	h := New(64)
	replay := func() {
		h.Reset()
		for a := 0; a < 32; a++ {
			for b := 32; b < 64; b += 2 {
				h.AddPrefer(a, b)
			}
		}
		h.AddPrefer(32, 33)
		h.AddEqual(0, 1)
		h.AddEqual(35, 37)
		h.AddPrefer(2, 35)
		h.AddPrefer(0, 34)
	}
	replay()
	if avg := testing.AllocsPerRun(20, replay); avg != 0 {
		t.Fatalf("Reset and replay allocated %.2f times per run; want 0", avg)
	}
}
