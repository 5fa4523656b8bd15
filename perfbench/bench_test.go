package main

import (
	"context"
	"testing"
	"time"
)

// TestExactRepeat runs every workload twice on one seed — once with one
// annealer worker, once with one per CPU — and requires the metrics that
// are exact functions of the seed to come out identical: solution
// quality, annealing runs, modeled time to the final incumbent, and the
// session's solved and skipped windows.
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	defer func(n int) { paperPerClass = n }(paperPerClass)
	paperPerClass = 1 // keep the paper list short; the protocol is unchanged

	cases := []struct {
		workload string
		trace    bool
		names    []string
	}{
		{"paper-solve", false, []string{"cost_ratio"}},
		{"paper-solve", true, []string{"anneal.runs", "dwave.modeled_ttb_ms", "dwave.broken_chain_rate"}},
		{"serve-zipf", false, []string{"cost_ratio"}},
		{"serve-zipf", true, []string{"anneal.runs", "dwave.modeled_ttb_ms", "plancache.hit_ratio"}},
		{"session-stream", false, []string{"cost_ratio"}},
		{"session-stream", true, []string{"anneal.runs", "dwave.modeled_ttb_ms",
			"session.windows", "session.windows_skipped"}},
	}
	for _, c := range cases {
		var got [2]metrics
		for i, par := range []int{1, 0} {
			cfg := config{workload: c.workload, seed: 3, seconds: 3 * time.Second, trace: c.trace,
				par: par, lowRPS: 20, highRPS: 40}
			out, err := workloads[c.workload](context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v parallelism=%d: %v", c.workload, c.trace, par, err)
			}
			if out.failed != 0 {
				t.Fatalf("%s trace=%v parallelism=%d: %d of %d operations failed their checks",
					c.workload, c.trace, par, out.failed, out.attempted)
			}
			got[i] = out.metrics
		}
		for _, name := range c.names {
			a, ok := got[0][name]
			if !ok {
				t.Errorf("%s: metric %s not reported", c.workload, name)
				continue
			}
			if b := got[1][name]; a != b {
				t.Errorf("%s: %s = %v at parallelism 1, %v at one worker per CPU", c.workload, name, a.Value, b.Value)
			}
		}
	}
}
