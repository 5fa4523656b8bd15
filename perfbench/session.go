package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/splitmix"
	"repro/mqopt"
)

// The session-stream workload: an mqopt.Session over about sessionLive
// live queries, fed a seeded stream of ±1-query deltas (an arrival that
// shares work with recent queries, then a random retirement). Windows of
// 6 queries, 4 sweeps and 64 runs per window, as in the session panel.
// Each pass is a fresh session: epoch 0 and a fixed warm-up prefix of
// the stream are set-up, every later Apply is timed.
const (
	sessionLive   = 60
	sessionDeltas = 120
	sessionWarmup = 8
	// sessionReach is how far back (in live-query order) an arrival may
	// share work; it bounds the width of the exact DP below.
	sessionReach = 4
	// sessionStreams independent streams run one after another, so the
	// quality and latency figures average over more than one workload.
	sessionStreams = 4
)

var sessionCfg = mqopt.SessionConfig{WindowQueries: 6, MaxSweeps: 4, Runs: 64}

// sessionState mirrors the session's workload move for move, so every
// epoch's answer can be checked against an independent cost and the
// exact optimum.
type sessionState struct {
	order   []string
	costs   map[string][]float64
	savings []mqopt.SessionSaving
}

type sessionInputs struct {
	cfg    mqopt.SessionConfig
	init   mqopt.SessionDelta
	deltas []mqopt.SessionDelta
	// states[k] and opt[k] describe the workload after deltas[k].
	states []*sessionState
	opt    []float64
}

func sessionStream(seed int64) (*sessionInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	st := &sessionState{costs: map[string][]float64{}}
	next := 0
	newQuery := func() mqopt.SessionQuery {
		q := mqopt.SessionQuery{ID: fmt.Sprintf("q%d", next), Costs: make([]float64, 2+rng.Intn(2))}
		next++
		for i := range q.Costs {
			q.Costs[i] = float64(1 + rng.Intn(9))
		}
		return q
	}
	// arrive links q to one or two of the sessionReach most recent live
	// queries: arrivals share work with their temporal neighbours.
	arrive := func(q mqopt.SessionQuery) []mqopt.SessionSaving {
		recent := st.order[max(0, len(st.order)-sessionReach):]
		var out []mqopt.SessionSaving
		for _, k := range rng.Perm(len(recent))[:min(len(recent), 1+rng.Intn(2))] {
			partner := recent[k]
			out = append(out, mqopt.SessionSaving{
				Q1: q.ID, P1: rng.Intn(len(q.Costs)),
				Q2: partner, P2: rng.Intn(len(st.costs[partner])),
				Value: float64(1 + rng.Intn(5)),
			})
		}
		st.order = append(st.order, q.ID)
		st.costs[q.ID] = q.Costs
		st.savings = append(st.savings, out...)
		return out
	}
	in := &sessionInputs{cfg: sessionCfg}
	in.cfg.Seed = seed
	for i := 0; i < sessionLive; i++ {
		q := newQuery()
		in.init.AddQueries = append(in.init.AddQueries, q)
		in.init.AddSavings = append(in.init.AddSavings, arrive(q)...)
	}
	for k := 0; k < sessionDeltas; k++ {
		var d mqopt.SessionDelta
		if k%2 == 0 {
			q := newQuery()
			d = mqopt.SessionDelta{AddQueries: []mqopt.SessionQuery{q}, AddSavings: arrive(q)}
		} else {
			victim := st.order[rng.Intn(len(st.order))]
			st.remove(victim)
			d = mqopt.SessionDelta{RemoveQueries: []string{victim}}
		}
		opt, err := st.optimum()
		if err != nil {
			return nil, err
		}
		in.deltas = append(in.deltas, d)
		in.states = append(in.states, st.clone())
		in.opt = append(in.opt, opt)
	}
	return in, nil
}

func (st *sessionState) remove(id string) {
	order := st.order[:0]
	for _, q := range st.order {
		if q != id {
			order = append(order, q)
		}
	}
	st.order = order
	delete(st.costs, id)
	savings := st.savings[:0]
	for _, sv := range st.savings {
		if sv.Q1 != id && sv.Q2 != id {
			savings = append(savings, sv)
		}
	}
	st.savings = savings
}

func (st *sessionState) clone() *sessionState {
	c := &sessionState{
		order:   append([]string(nil), st.order...),
		costs:   make(map[string][]float64, len(st.costs)),
		savings: append([]mqopt.SessionSaving(nil), st.savings...),
	}
	for k, v := range st.costs {
		c.costs[k] = v
	}
	return c
}

// cost recomputes the execution cost of a plan choice from the mirror.
func (st *sessionState) cost(plans map[string]int) (float64, error) {
	if len(plans) != len(st.order) {
		return 0, fmt.Errorf("%d plans chosen for %d live queries", len(plans), len(st.order))
	}
	total := 0.0
	for _, id := range st.order {
		pl, ok := plans[id]
		if !ok || pl < 0 || pl >= len(st.costs[id]) {
			return 0, fmt.Errorf("query %s has no valid plan", id)
		}
		total += st.costs[id][pl]
	}
	for _, sv := range st.savings {
		if plans[sv.Q1] == sv.P1 && plans[sv.Q2] == sv.P2 {
			total -= sv.Value
		}
	}
	return total, nil
}

// optimum is the exact minimum cost by dynamic programming along the
// live-query order. Every saving joins queries at most sessionReach
// apart in that order (removals only bring queries closer), so a state
// is the plan choice of the last sessionReach queries.
func (st *sessionState) optimum() (float64, error) {
	const base = 3 // at most three plans per query
	pos := make(map[string]int, len(st.order))
	for i, id := range st.order {
		pos[id] = i
	}
	type link struct {
		back         int // how many queries earlier the partner sits
		mine, theirs int
		value        float64
	}
	links := make([][]link, len(st.order))
	for _, sv := range st.savings {
		a, b := pos[sv.Q1], pos[sv.Q2]
		pa, pb := sv.P1, sv.P2
		if a < b {
			a, b, pa, pb = b, a, pb, pa
		}
		if a-b > sessionReach {
			return 0, fmt.Errorf("saving spans %d queries, beyond the DP's reach", a-b)
		}
		links[a] = append(links[a], link{back: a - b, mine: pa, theirs: pb, value: sv.Value})
	}
	states := 1
	for i := 0; i < sessionReach; i++ {
		states *= base
	}
	// A state's digit k-1 (base 3) is the plan of the query k back.
	dp := make([]float64, states)
	nextDP := make([]float64, states)
	for s := range dp {
		dp[s] = math.Inf(1)
	}
	dp[0] = 0
	for i, id := range st.order {
		for s := range nextDP {
			nextDP[s] = math.Inf(1)
		}
		for s, v := range dp {
			if math.IsInf(v, 1) {
				continue
			}
			for pl, c := range st.costs[id] {
				total := v + c
				for _, l := range links[i] {
					if l.mine == pl && (s/pow(base, l.back-1))%base == l.theirs {
						total -= l.value
					}
				}
				ns := (s*base + pl) % states
				if total < nextDP[ns] {
					nextDP[ns] = total
				}
			}
		}
		dp, nextDP = nextDP, dp
	}
	best := math.Inf(1)
	for _, v := range dp {
		best = min(best, v)
	}
	return best, nil
}

func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}

// newSession starts a pass: a fresh session through epoch 0 and the
// warm-up prefix of the stream.
func newSession(ctx context.Context, in *sessionInputs, par int) (*mqopt.Session, error) {
	s := mqopt.NewSession(in.cfg)
	s.SetParallelism(par)
	if _, err := s.Apply(ctx, in.init); err != nil {
		return nil, fmt.Errorf("epoch 0: %w", err)
	}
	for k := 0; k < sessionWarmup; k++ {
		if _, err := s.Apply(ctx, in.deltas[k]); err != nil {
			return nil, fmt.Errorf("warm-up delta %d: %w", k, err)
		}
	}
	return s, nil
}

type epochFacts struct {
	cost, opt, ttbMs float64
	fingerprint      uint64
	dirty, windows   int
	skipped, runs    int
}

func sessionCheck(in *sessionInputs, k int, ep *mqopt.SessionEpoch, err error) (epochFacts, error) {
	if err != nil {
		return epochFacts{}, err
	}
	got, err := in.states[k].cost(ep.Plans)
	if err != nil {
		return epochFacts{}, err
	}
	if got != ep.Cost {
		return epochFacts{}, fmt.Errorf("reported cost %v, recomputed %v", ep.Cost, got)
	}
	if ep.Cost < in.opt[k]-1e-9 {
		return epochFacts{}, fmt.Errorf("cost %v beats the exact optimum %v", ep.Cost, in.opt[k])
	}
	f := epochFacts{
		cost: ep.Cost, opt: in.opt[k],
		fingerprint: ep.Fingerprint, dirty: ep.Dirty,
		windows: ep.Windows, skipped: ep.WindowsSkipped, runs: ep.Runs,
	}
	if n := len(ep.Incumbents); n > 0 {
		f.ttbMs = ms(ep.Incumbents[n-1].T)
	}
	return f, nil
}

func runSession(ctx context.Context, cfg config) (*outcome, error) {
	type prepared struct {
		ins      []*sessionInputs
		sessions []*mqopt.Session
	}
	prep, setupS, err := timedSetup(func() (prepared, error) {
		var p prepared
		for j := 0; j < sessionStreams; j++ {
			in, err := sessionStream(splitmix.Split(cfg.seed, int64(j)))
			if err != nil {
				return p, err
			}
			s, err := newSession(ctx, in, cfg.par)
			if err != nil {
				return p, err
			}
			p.ins, p.sessions = append(p.ins, in), append(p.sessions, s)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if cfg.trace {
		err = sessionTraced(ctx, cfg, prep.ins[0], out)
	} else {
		err = sessionTimed(ctx, cfg, prep.ins, prep.sessions, out)
	}
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	return out, nil
}

// sessionTimed applies every stream's timed deltas, stream after stream,
// pass after pass, each pass on fresh sessions. The first pass supplies
// the deterministic metrics and the first stream's log must replay to
// the same session; later passes must repeat it epoch for epoch.
func sessionTimed(ctx context.Context, cfg config, ins []*sessionInputs, sessions []*mqopt.Session, out *outcome) error {
	nTimed := sessionDeltas - sessionWarmup
	first := make([]epochFacts, len(ins)*nTimed)
	live := append([]*mqopt.Session(nil), sessions...)
	var cpu meter
	scaled, wall, applies, err := timePasses(cfg.seconds, len(first),
		func(pass, i int) (sample, error) {
			j, k := i/nTimed, sessionWarmup+i%nTimed
			in := ins[j]
			if pass > 0 && k == sessionWarmup {
				s, err := newSession(ctx, in, cfg.par)
				if err != nil {
					return sample{}, err
				}
				live[j] = s
			}
			var ep *mqopt.SessionEpoch
			var err error
			d := cpu.probed(func() { ep, err = live[j].Apply(ctx, in.deltas[k]) })
			out.attempted++
			facts, err := sessionCheck(in, k, ep, err)
			switch {
			case err != nil:
				out.failed++
				warnf("session-stream: stream %d delta %d: %v", j, k, err)
			case pass == 0:
				first[i] = facts
			case facts != first[i]:
				out.failed++
				warnf("session-stream: stream %d delta %d: pass %d differs from pass 0", j, k, pass)
			}
			return d, nil
		})
	if err != nil {
		return err
	}
	out.attempted++
	if _, _, err := replayCheck(ctx, sessions[0]); err != nil {
		out.failed++
		warnf("session-stream: %v", err)
	}
	var cost, opt []float64
	for _, f := range first {
		cost, opt = append(cost, f.cost), append(opt, f.opt)
	}
	out.reportTimes(scaled, wall, &cpu)
	out.metrics.set("cost_ratio", "ratio", mean(cost)/mean(opt))
	out.info["gap_pct"] = 100 * (mean(cost) - mean(opt)) / mean(opt)
	out.info["cost_mean"] = mean(cost)
	out.info["applies"] = applies
	return nil
}

// replayCheck writes the session's event log, replays it, and requires
// the replayed session's fingerprint and cost to equal the live one's.
func replayCheck(ctx context.Context, s *mqopt.Session) (logBytes int, replay time.Duration, err error) {
	var log bytes.Buffer
	if err := s.WriteLog(&log); err != nil {
		return 0, 0, err
	}
	logBytes = log.Len()
	start := time.Now()
	r, _, err := mqopt.ReplaySession(ctx, &log, 0, nil)
	replay = time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("replaying the log: %w", err)
	}
	if r.Fingerprint() != s.Fingerprint() || r.Cost() != s.Cost() {
		return 0, 0, fmt.Errorf("replayed session %016x cost %v, live %016x cost %v",
			r.Fingerprint(), r.Cost(), s.Fingerprint(), s.Cost())
	}
	return logBytes, replay, nil
}

// sessionTraced runs one pass untraced (the reference) and one pass
// with a span around every Apply, then the log write and replay.
func sessionTraced(ctx context.Context, cfg config, in *sessionInputs, out *outcome) error {
	var plain []time.Duration
	allocMiB, gcs, err := memDelta(func() error {
		s, err := newSession(ctx, in, cfg.par)
		if err != nil {
			return err
		}
		runtime.GC()
		for k := sessionWarmup; k < len(in.deltas); k++ {
			start := time.Now()
			_, err := s.Apply(ctx, in.deltas[k])
			plain = append(plain, time.Since(start))
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s, err := newSession(ctx, in, cfg.par)
	if err != nil {
		return err
	}
	tr := newTracer()
	var dirty, windows, skipped, runs []float64
	var ttb []float64
	runtime.GC()
	for k := sessionWarmup; k < len(in.deltas); k++ {
		root := tr.begin("session.apply", k, -1)
		ep, err := s.Apply(ctx, in.deltas[k])
		tr.end(root)
		out.attempted++
		f, err := sessionCheck(in, k, ep, err)
		if err != nil {
			out.failed++
			warnf("session-stream: delta %d: %v", k, err)
			continue
		}
		dirty, windows = append(dirty, float64(f.dirty)), append(windows, float64(f.windows))
		skipped, runs = append(skipped, float64(f.skipped)), append(runs, float64(f.runs))
		ttb = append(ttb, f.ttbMs)
	}
	out.attempted++
	logBytes, replay, err := replayCheck(ctx, s)
	if err != nil {
		out.failed++
		warnf("session-stream: %v", err)
	}
	if err := tr.write(spanPath(cfg)); err != nil {
		return err
	}
	n := float64(len(plain))
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	applyMs := ms(tr.selfTimes()["session.apply"]) / n
	plainMs := meanMs(plain)
	m := out.metrics
	m.set("session.apply_ms", "ms", applyMs)
	m.set("session.dirty_mean", "count", mean(dirty))
	m.set("session.windows", "count", sum(windows))
	m.set("session.windows_skipped", "count", sum(skipped))
	m.set("session.skip_ratio", "ratio", sum(skipped)/(sum(windows)+sum(skipped)))
	m.set("session.runs", "count", sum(runs))
	m.set("session.log_bytes", "bytes", float64(logBytes))
	m.set("session.replay_ms", "ms", ms(replay))
	m.set("anneal.runs", "count", sum(runs))
	m.set("dwave.modeled_ttb_ms", "ms", mean(ttb))
	m.set("runtime.alloc_mib_per_op", "MiB", allocMiB/n)
	m.set("runtime.gc_cycles_per_op", "count", float64(gcs)/n)
	m.set("trace.unaccounted_pct", "%", 100*(plainMs-applyMs)/plainMs)
	m.set("trace.overhead_pct", "%", 100*(meanMs(tr.durations("session.apply"))-plainMs)/plainMs)
	return nil
}
