package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/dwave"
	"repro/internal/embedding"
	"repro/internal/ising"
	"repro/internal/logical"
	"repro/internal/mqo"
	"repro/internal/splitmix"
	"repro/internal/topology"
	"repro/mqopt"
	"repro/mqopt/solverreg"
)

// The paper-solve workload: the paper's own experiment (Section 7,
// Figures 4 and 5). Embeddable instances of the 537×2 and 108×5 classes
// run through solver "qa" at the paper protocol — 1000 runs in gauge
// batches of 100 on a fault-free D-Wave 2X, a fresh compile per solve —
// one solve at a time, the same list in the same order on every pass.
const (
	paperRuns = 1000
	// paperTraceOps is how many instances of the list the traced run
	// solves three ways (QuantumMQO, composed, composed with spans).
	paperTraceOps = 2
)

// paperPerClass is how many instances of each class the list holds.
var paperPerClass = 6

var paperClasses = []mqopt.Class{{Queries: 537, PlansPerQuery: 2}, {Queries: 108, PlansPerQuery: 5}}

// paperInstance is one solve: an instance with its exact optimum and
// the solver seed and annealing runs to solve it with.
type paperInstance struct {
	p     *mqopt.Problem
	inner *mqo.Problem // the same instance, for composing the pipeline stage by stage
	opt   float64      // chain-DP optimum
	seed  int64        // solver seed
	runs  int
}

// paperInputs builds the instance list: classes interleaved, every
// instance and solver seed split off the workload seed.
func paperInputs(seed int64) ([]paperInstance, error) {
	var list []paperInstance
	for i := 0; i < paperPerClass; i++ {
		for c, class := range paperClasses {
			k := int64(i*len(paperClasses) + c)
			p, err := mqopt.GenerateEmbeddable(splitmix.Split(seed, 2*k), nil, class, mqopt.GeneratorConfig{})
			if err != nil {
				return nil, err
			}
			in, opt, err := internalForm(p)
			if err != nil {
				return nil, err
			}
			list = append(list, paperInstance{p: p, inner: in, opt: opt, seed: splitmix.Split(seed, 2*k+1), runs: paperRuns})
		}
	}
	return list, nil
}

// internalForm re-reads a facade problem as the internal instance type
// and computes its exact optimum.
func internalForm(p *mqopt.Problem) (*mqo.Problem, float64, error) {
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		return nil, 0, err
	}
	in, err := mqo.Read(&buf)
	if err != nil {
		return nil, 0, err
	}
	if in.Fingerprint() != p.Fingerprint() {
		return nil, 0, fmt.Errorf("instance changed in the JSON round trip")
	}
	_, opt, err := in.Optimum()
	if err != nil {
		return nil, 0, err
	}
	return in, opt, nil
}

func paperSolve(ctx context.Context, in paperInstance, par int) (*mqopt.Result, error) {
	return solverreg.Solve(ctx, "qa", in.p,
		mqopt.WithSeed(in.seed),
		mqopt.WithBudget(time.Second), // 2659 modeled runs, capped below
		mqopt.WithAnnealingRuns(in.runs),
		mqopt.WithParallelism(par))
}

// checkSolution verifies a returned solution: valid plan selection,
// reported cost equal to the recomputed cost, and no better than the
// exact optimum.
func checkSolution(p *mqopt.Problem, sol mqopt.Solution, cost, opt float64) error {
	if !p.Valid(sol) {
		return fmt.Errorf("invalid plan selection")
	}
	got, err := p.Cost(sol)
	if err != nil {
		return err
	}
	if got != cost {
		return fmt.Errorf("reported cost %v, recomputed %v", cost, got)
	}
	if cost < opt-1e-9 {
		return fmt.Errorf("cost %v beats the exact optimum %v", cost, opt)
	}
	return nil
}

type solveFacts struct {
	cost, opt, ttbMs float64
}

func paperCheck(in paperInstance, res *mqopt.Result, err error) (solveFacts, error) {
	if err != nil {
		return solveFacts{}, err
	}
	if err := checkSolution(in.p, res.Solution, res.Cost, in.opt); err != nil {
		return solveFacts{}, err
	}
	if res.Annealer == nil || res.Annealer.Runs != in.runs || len(res.Incumbents) == 0 {
		return solveFacts{}, fmt.Errorf("solve ran %v annealing runs, want %d", res.Annealer, in.runs)
	}
	last := res.Incumbents[len(res.Incumbents)-1]
	return solveFacts{
		cost:  res.Cost,
		opt:   in.opt,
		ttbMs: ms(last.Elapsed),
	}, nil
}

func runPaper(ctx context.Context, cfg config) (*outcome, error) {
	list, setupS, err := timedSetup(func() ([]paperInstance, error) {
		list, err := paperInputs(cfg.seed)
		if err != nil {
			return nil, err
		}
		// Untimed warm-up: one solve brings the heap and the sampler's
		// lookup tables to steady state.
		_, err = paperSolve(ctx, list[0], cfg.par)
		return list, err
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if cfg.trace {
		err = traceSolves(ctx, list[:paperTraceOps], spanPath(cfg), out)
	} else {
		err = paperTimed(ctx, cfg, list, out)
	}
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	return out, nil
}

// paperTimed solves the list in order, pass after pass. The first pass
// supplies the deterministic quality metrics; later passes must repeat
// it exactly.
func paperTimed(ctx context.Context, cfg config, list []paperInstance, out *outcome) error {
	first := make([]solveFacts, len(list))
	var cpu meter
	scaled, wall, solves, err := timePasses(cfg.seconds, len(list),
		func(pass, i int) (sample, error) {
			var res *mqopt.Result
			var err error
			d := cpu.probed(func() { res, err = paperSolve(ctx, list[i], cfg.par) })
			out.attempted++
			facts, err := paperCheck(list[i], res, err)
			switch {
			case err != nil:
				out.failed++
				warnf("paper-solve: instance %d: %v", i, err)
			case pass == 0:
				first[i] = facts
			case facts != first[i]:
				out.failed++
				warnf("paper-solve: instance %d: pass %d differs from pass 0", i, pass)
			}
			return d, nil
		})
	if err != nil {
		return err
	}
	var cost, opt []float64
	for _, f := range first {
		cost, opt = append(cost, f.cost), append(opt, f.opt)
	}
	out.reportTimes(scaled, wall, &cpu)
	out.metrics.set("cost_ratio", "ratio", mean(cost)/mean(opt))
	out.info["gap_pct"] = 100 * (mean(cost) - mean(opt)) / mean(opt)
	out.info["cost_mean"] = mean(cost)
	out.info["solves"] = solves
	out.info["instances"] = len(list)
	return nil
}

// composed is core.QuantumMQO's pipeline rebuilt from the layers'
// public calls, one gauge batch after another, with a span around each
// call: logical mapping, embedding, physical mapping, sampler compile,
// the device's batch stream and the per-read-out decode. It omits what
// has no public entry — the plan-swap descent on each read-out and the
// batch merge — which the traced run reports as core.other_ms.
type composed struct {
	qubits, maxChain int
	runs, decoded    int
	broken           int
	spinUpdates      float64
	bestCost         float64
}

func composeSolve(ctx context.Context, tr *tracer, op int, in paperInstance) (*composed, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	g := topology.DWave2X(0, 0)
	p := in.inner

	s := tr.begin("logical.map", op, root)
	mapping := logical.Map(p)
	tr.end(s)

	s = tr.begin("embedding.embed", op, root)
	emb, _, err := core.EmbedProblem(g, p, mapping, core.PatternAuto)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("embedding.phys", op, root)
	phys, err := embedding.PhysicalMap(emb, mapping.QUBO, logical.DefaultEpsilon)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("anneal.compile", op, root)
	isingProblem := ising.FromQUBO(phys.QUBO)
	program := anneal.Compile(isingProblem)
	tr.end(s)

	sampler := dwave.DefaultSampler()
	device := dwave.NewDeviceFor(g.Kind(), sampler)
	res := &composed{qubits: emb.NumQubits(), maxChain: emb.MaxChainLength(), bestCost: math.Inf(1)}
	var sc dwave.Scratch
	bits := make([]bool, isingProblem.N())
	lbits := make([]bool, phys.Logical.N())
	sol := make(mqo.Solution, p.NumQueries())
	selected := make([]bool, p.NumPlans())
	var best mqo.Solution
	for _, b := range device.Batches(in.runs, in.seed) {
		bs := tr.begin("anneal.sample", op, root)
		device.StreamBatch(ctx, isingProblem, program, b, &sc, func(ro dwave.Readout) bool {
			ds := tr.begin("core.decode", op, bs)
			anneal.UnpackBits(ro.Words, bits)
			phys.UnembedInto(bits, lbits)
			if phys.BrokenChains(bits) > 0 {
				res.broken++
			}
			mapping.QUBO.FirstImprovementDescent(lbits, 16)
			d := mapping.DecodeInto(lbits, sol, selected)
			if cost, err := p.CostWith(d, selected); err == nil {
				res.decoded++
				if cost < res.bestCost {
					res.bestCost = cost
					best = append(best[:0], d...)
				}
			}
			res.runs++
			tr.end(ds)
			return true
		})
		tr.end(bs)
	}
	if sa, ok := sampler.(*anneal.SimulatedAnnealer); ok {
		res.spinUpdates = float64(res.runs) * float64(sa.Sweeps) * float64(isingProblem.N())
	}
	if best == nil {
		return nil, fmt.Errorf("no read-out decoded")
	}
	if err := checkSolution(in.p, best, res.bestCost, in.opt); err != nil {
		return nil, fmt.Errorf("composed pipeline: %w", err)
	}
	return res, nil
}

// traceSolves measures the per-layer split of solving list, all
// at parallelism 1 so stage times add up along one thread: QuantumMQO
// untraced (the reference), the composed pipeline untraced (the trace's
// baseline), and the composed pipeline with spans, back to back per
// instance with the last two in alternating order. Every time here is
// process CPU time: half-second operations absorb too much of the host's
// preemption for wall-clock spans to resolve a stage. This repeats
// minPasses times and every time figure is its minimum over the
// repetitions; counts come from the first.
func traceSolves(ctx context.Context, list []paperInstance, spans string, out *outcome) error {
	n := float64(len(list))
	stages := []string{"logical.map", "embedding.embed", "embedding.phys", "anneal.compile", "anneal.sample", "core.decode"}
	best := map[string]float64{} // ms per operation
	keep := func(name string, v float64) {
		if old, ok := best[name]; !ok || v < old {
			best[name] = v
		}
	}
	var ttb []float64
	var allocMiB float64
	var gcs uint32
	var runs, decoded, broken, qubits, maxChain int
	var spinUpdates float64
	for rep := 0; rep < minPasses; rep++ {
		tr := newCPUTracer()
		var quantum, plain time.Duration
		for i, in := range list {
			a, g, err := memDelta(func() error {
				runtime.GC()
				start := cpuTime()
				res, err := paperSolve(ctx, in, 1)
				quantum += cpuTime() - start
				out.attempted++
				facts, err := paperCheck(in, res, err)
				if err != nil {
					out.failed++
					warnf("paper-solve: instance %d: %v", i, err)
				}
				if rep == 0 {
					ttb = append(ttb, facts.ttbMs)
				}
				return nil
			})
			if err != nil {
				return err
			}
			untraced := func() error {
				runtime.GC()
				start := cpuTime()
				_, err := composeSolve(ctx, nil, 0, in)
				plain += cpuTime() - start
				return err
			}
			traced := func() error {
				runtime.GC()
				c, err := composeSolve(ctx, tr, i, in)
				if err == nil && rep == 0 {
					allocMiB, gcs = allocMiB+a, gcs+g
					runs, decoded, broken = runs+c.runs, decoded+c.decoded, broken+c.broken
					qubits, maxChain = qubits+c.qubits, max(maxChain, c.maxChain)
					spinUpdates += c.spinUpdates
				}
				return err
			}
			first, second := untraced, traced
			if (rep+i)%2 == 1 {
				first, second = traced, untraced
			}
			if err := first(); err != nil {
				return err
			}
			if err := second(); err != nil {
				return err
			}
		}
		if rep == 0 {
			if err := tr.write(spans); err != nil {
				return err
			}
		}
		self := tr.selfTimes()
		for _, s := range stages {
			keep(s, ms(self[s])/n)
		}
		keep("quantum", ms(quantum)/n)
		keep("plain", ms(plain)/n)
		keep("traced", meanMs(tr.durations("op")))
	}
	stageSum := 0.0
	for _, s := range stages {
		stageSum += best[s]
	}
	other := best["quantum"] - best["plain"]

	m := out.metrics
	m.set("anneal.sample_ms", "ms", best["anneal.sample"])
	m.set("anneal.runs", "count", float64(runs))
	m.set("anneal.spin_updates", "count", spinUpdates)
	m.set("anneal.ns_per_spin_update", "ns", best["anneal.sample"]*n*1e6/spinUpdates)
	m.set("anneal.compile_ms", "ms", best["anneal.compile"])
	m.set("core.decode_ms", "ms", best["core.decode"])
	m.set("core.other_ms", "ms", other)
	m.set("core.decoded_ratio", "ratio", float64(decoded)/float64(runs))
	m.set("logical.map_ms", "ms", best["logical.map"])
	m.set("embedding.embed_ms", "ms", best["embedding.embed"])
	m.set("embedding.phys_ms", "ms", best["embedding.phys"])
	m.set("embedding.qubits", "count", float64(qubits)/n)
	m.set("embedding.max_chain", "count", float64(maxChain))
	m.set("dwave.broken_chain_rate", "ratio", float64(broken)/float64(runs))
	m.set("dwave.modeled_ttb_ms", "ms", mean(ttb))
	m.set("runtime.alloc_mib_per_op", "MiB", allocMiB/n)
	m.set("runtime.gc_cycles_per_op", "count", float64(gcs)/n)
	m.set("trace.unaccounted_pct", "%", 100*(best["quantum"]-stageSum-other)/best["quantum"])
	m.set("trace.overhead_pct", "%", 100*(best["traced"]-best["plain"])/best["plain"])
	out.info["traced_ops"] = len(list)
	out.info["quantum_mqo_ms"] = best["quantum"]
	return nil
}
