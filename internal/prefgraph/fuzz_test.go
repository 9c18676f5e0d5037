package prefgraph

import "testing"

// FuzzGraph decodes a byte stream into AddPrefer / AddEqual / Reset
// operations on up to 130 nodes (three words per row) and checks every
// return value, every ordered pair, PreferredSet membership and the
// counters against the brute-force reference after each operation.
//
// Encoding: the first byte picks n = 1 + b%130; each following triple
// (op, a, b) applies AddEqual when op%8 is 5 or 6, Reset when op is 255,
// and AddPrefer otherwise, to nodes a%n and b%n.
func FuzzGraph(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 0, 1, 2, 5, 2, 3, 0, 3, 4})
	f.Add([]byte{69, 0, 1, 2, 0, 3, 4, 5, 2, 3, 0, 4, 1, 0, 1, 0})
	f.Add([]byte{129, 0, 0, 70, 0, 70, 129, 6, 64, 0, 255, 0, 0, 0, 129, 0})
	f.Add([]byte{11, 0, 0, 1, 0, 2, 3, 5, 1, 2, 0, 4, 0, 5, 5, 3, 0, 5, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%130
		g, m := New(n), newModel(n)
		ops := data[1:]
		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			op, a, b := ops[i], int(ops[i+1])%n, int(ops[i+2])%n
			var got, want bool
			switch {
			case op == 255:
				g.Reset()
				m.reset()
				got, want = true, true
			case op%8 == 5 || op%8 == 6:
				got, want = g.AddEqual(a, b), m.addEqual(a, b)
			default:
				got, want = g.AddPrefer(a, b), m.addPrefer(a, b)
			}
			if got != want {
				t.Fatalf("op %d (%d on %d,%d): returned %v, want %v", i/3, op, a, b, got, want)
			}
			if msg := agree(g, m); msg != "" {
				t.Fatalf("after op %d (%d on %d,%d): %s", i/3, op, a, b, msg)
			}
		}
	})
}
