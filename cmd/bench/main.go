// Command bench runs the chaos session: a full crowd-skyline session
// against an in-process marketplace under seeded fault injection —
// transport resets, 503s, latency, truncated bodies, misbehaving workers,
// and a requester crash that tears the journal mid-write — then resumes
// from the recovered journal and checks the paper's two invariants:
//
//  1. the crowdsourced skyline equals the oracle skyline;
//  2. no answer that survived in the journal is purchased again.
//
// Usage:
//
//	go run ./cmd/bench -chaos-seed 1234 -chaos-dir chaos-artifacts
//
// The run prints a JSON verdict to stdout and leaves its artifacts (the
// torn journal, the recovered journal, the server-side trace) under
// -chaos-dir for CI to upload on failure. Any invariant violation exits
// non-zero: this is a hard gate, because the invariants are exact
// properties, not machine-dependent timings.
//
// Kernel timings are `go test -bench` in internal/skyline,
// internal/prefgraph and internal/core; end-to-end timings are
// crowdbench. See docs/PERFORMANCE.md.
package main

import (
	"flag"
	"os"
)

func main() {
	seed := flag.Int64("chaos-seed", 1234, "fault plan seed (same seed, same fault schedule)")
	dir := flag.String("chaos-dir", "chaos-artifacts", "directory for failure artifacts (journals, server trace)")
	flag.Parse()
	os.Exit(runChaos(*seed, *dir, os.Stdout))
}
