package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/splitmix"
	"repro/mqopt"
	"repro/mqopt/cluster"
	"repro/mqopt/solverreg"
)

// The serve-zipf workload: open-loop Poisson arrivals to POST /solve on
// an in-process standalone node (cluster.NewNode over mqopt.NewService,
// default cache and admission). Popularity is Zipf over serveDistinct
// instances — four times the default cache capacity, so hits and misses
// with evictions interleave — of mixed size, each request carrying a
// short run budget so that compile and wire are a large share of a
// miss. The run spends two thirds of its time at the low offered rate,
// then the rest at the high one.
const (
	// serveDistinct is four times the service's default cache capacity.
	serveDistinct = 4 * 128
	serveZipfS    = 1.1
	serveRuns     = 10
	serveWarmup   = 64
	// serveReps is how many times each phase's schedule is offered, each
	// time to a fresh node warmed with the same prefix; a request's
	// latency is its median scaled latency over the repetitions (see
	// probe.go).
	serveReps = 5
	// serveLowShare is the low-rate phase's share of the run: its
	// median needs as many requests as the high phase's 90th percentile.
	serveLowShare    = 2.0 / 3
	serveTrafficSeed = 20160901
	// serveTraceOps is how many requests of the stream the traced run
	// replays one at a time on each path; the pipeline's stages are
	// composed on the first serveComposeOps of them.
	serveTraceOps   = 160
	serveComposeOps = 16
	// serveCheckEvery sets the share of responses re-solved directly
	// and compared byte for byte: one in serveCheckEvery, seeded.
	serveCheckEvery = 16
)

// serveSizes are the query counts (three plans each) the popularity
// ranks cycle through, so every popularity level mixes small and large
// instances on every seed.
var serveSizes = []int{40, 80, 120, 180, 253}

type serveInstance struct {
	p   *mqopt.Problem
	raw json.RawMessage
	opt float64
}

type shot struct {
	at   time.Duration // due time, from the phase start
	inst int
	seed int64 // the request's solver seed
	body []byte
}

type serveInputs struct {
	insts     []serveInstance
	warmup    []shot
	low, high []shot
}

func serveStream(cfg config) (*serveInputs, error) {
	in := &serveInputs{insts: make([]serveInstance, serveDistinct)}
	for r := range in.insts {
		class := mqopt.Class{Queries: serveSizes[r%len(serveSizes)], PlansPerQuery: 3}
		p, err := mqopt.GenerateEmbeddable(splitmix.Split(cfg.seed, int64(r)), nil, class, mqopt.GeneratorConfig{})
		if err != nil {
			return nil, err
		}
		_, opt, err := p.Optimum()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := p.Write(&buf); err != nil {
			return nil, err
		}
		in.insts[r] = serveInstance{p: p, raw: buf.Bytes(), opt: opt}
	}
	// The traffic shape — arrival times and popularity ranks — comes from
	// a fixed stream, so every seed offers the same load and the same
	// cache hit/miss pattern; the seed draws the instance behind each
	// rank and every request's solver seed.
	traffic := rand.New(rand.NewSource(serveTrafficSeed))
	zipf := rand.NewZipf(traffic, serveZipfS, 1, serveDistinct-1)
	seeds := rand.New(rand.NewSource(cfg.seed))
	draw := func(at time.Duration) (shot, error) {
		r := int(zipf.Uint64())
		seed := seeds.Int63()
		body, err := json.Marshal(cluster.SolveRequest{
			Problem: in.insts[r].raw,
			Solver:  "qa",
			Seed:    &seed,
			Budget:  "1s",
			Runs:    serveRuns,
		})
		return shot{at: at, inst: r, seed: seed, body: body}, err
	}
	phase := func(rps, share float64) ([]shot, error) {
		n := int(math.Round(rps * share * cfg.seconds.Seconds() / serveReps))
		var out []shot
		var at time.Duration
		for i := 0; i < n; i++ {
			at += time.Duration(traffic.ExpFloat64() / rps * float64(time.Second))
			s, err := draw(at)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	for i := 0; i < serveWarmup; i++ {
		s, err := draw(0)
		if err != nil {
			return nil, err
		}
		in.warmup = append(in.warmup, s)
	}
	var err error
	if in.low, err = phase(cfg.lowRPS, serveLowShare); err != nil {
		return nil, err
	}
	in.high, err = phase(cfg.highRPS, 1-serveLowShare)
	return in, err
}

// server is one node under test with its HTTP endpoint.
type server struct {
	svc  *mqopt.Service
	node *cluster.Node
	http *httptest.Server
}

func newServer(par int) (*server, error) {
	svc, err := mqopt.NewService(solverreg.New, mqopt.WithParallelism(par))
	if err != nil {
		return nil, err
	}
	node, err := cluster.NewNode(cluster.NodeConfig{Service: svc})
	if err != nil {
		return nil, err
	}
	return &server{svc: svc, node: node, http: httptest.NewServer(node.Handler())}, nil
}

func (s *server) close() {
	s.http.Close()
	s.svc.Close()
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

type reply struct {
	due          time.Time
	latency, lag time.Duration
	status       int
	body         []byte
	err          error
}

// fire sends shots open loop: each is due at its scheduled time, sent
// by whichever of the NumCPU senders is free, and timed from when it
// was due — so a stall delays, and is charged to, every later request.
func fire(ctx context.Context, client *http.Client, url string, shots []shot, onSend func()) []reply {
	replies := make([]reply, len(shots))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) {
					return
				}
				due := start.Add(shots[i].at)
				time.Sleep(time.Until(due))
				sent := time.Now()
				if onSend != nil {
					onSend()
				}
				status, body, err := post(ctx, client, url, shots[i].body)
				replies[i] = reply{due: due, latency: time.Since(due), lag: sent.Sub(due), status: status, body: body, err: err}
			}
		}()
	}
	wg.Wait()
	return replies
}

// warm sends shots one at a time and requires every reply to be 200.
func warm(ctx context.Context, client *http.Client, url string, shots []shot) error {
	for i, s := range shots {
		status, _, err := post(ctx, client, url, s.body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d", i, status)
		}
	}
	return nil
}

// startNode brings up a fresh node and sends it the warm-up prefix, so
// every measured repetition starts from the same cache state.
func startNode(ctx context.Context, client *http.Client, in *serveInputs, par int) (*server, error) {
	srv, err := newServer(par)
	if err != nil {
		return nil, err
	}
	if err := warm(ctx, client, srv.http.URL+"/solve", in.warmup); err != nil {
		srv.close()
		return nil, err
	}
	return srv, nil
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var srv *server
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	in, setupS, err := timedSetup(func() (*serveInputs, error) {
		if srv != nil {
			srv.close()
			srv = nil
		}
		in, err := serveStream(cfg)
		if err != nil {
			return nil, err
		}
		srv, err = startNode(ctx, client, in, cfg.par)
		return in, err
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.setupS = setupS

	reps := serveReps
	if cfg.trace {
		reps = 1
	}
	var maxQueued atomic.Int64
	var lag []float64
	var shed uint64
	var cache mqopt.CacheStats
	var totals serveTotals
	var cpu meter
	phaseScaled, phaseWall := make([][]float64, 2), make([][]float64, 2)
	for ph, shots := range [][]shot{in.low, in.high} {
		samples := make([][]float64, len(shots))
		wall := make([]float64, len(shots))
		var first []reply
		for r := 0; r < reps; r++ {
			if srv == nil {
				if srv, err = startNode(ctx, client, in, cfg.par); err != nil {
					return nil, err
				}
			}
			node := srv.node
			warmed := srv.svc.Stats().Cache
			runtime.GC()
			var replies []reply
			pr := startProber()
			cpu.call(len(shots), func() {
				replies = fire(ctx, client, srv.http.URL+"/solve", shots, func() {
					if q := int64(node.Admission().Stats().Queued); q > maxQueued.Load() {
						maxQueued.Store(q)
					}
				})
			})
			pr.halt()
			shed += node.Admission().Stats().Shed
			cs := srv.svc.Stats().Cache
			cache.Hits += cs.Hits - warmed.Hits
			cache.Misses += cs.Misses - warmed.Misses
			cache.Evictions += cs.Evictions - warmed.Evictions
			srv.close()
			srv = nil
			t, err := serveCheck(ctx, cfg, in, shots, replies, first, out)
			if err != nil {
				return nil, err
			}
			if r == 0 {
				first = replies
				totals.add(t)
			}
			for i, rep := range replies {
				k := pr.scaleOver(rep.due, rep.due.Add(rep.latency))
				cpu.scales = append(cpu.scales, k)
				samples[i] = append(samples[i], ms(rep.latency)*k)
				if r == 0 || ms(rep.latency) < wall[i] {
					wall[i] = ms(rep.latency)
				}
				lag = append(lag, ms(rep.lag))
			}
		}
		phaseScaled[ph], phaseWall[ph] = make([]float64, len(shots)), wall
		for i, xs := range samples {
			phaseScaled[ph][i] = quantile(xs, 0.5)
		}
	}
	lowMs, highMs := phaseScaled[0], phaseScaled[1]
	if !cfg.trace {
		out.metrics.set("solve_ms_p50", "ms", quantile(lowMs, 0.5))
		out.metrics.set("solve_ms_p90", "ms", quantile(highMs, 0.9))
		out.info["cpu_ms_per_op"] = cpu.msPerOp()
		out.info["host_speed"] = mean(cpu.scales)
		out.info["wall_ms_p50_low"], out.info["wall_ms_p90_high"] = quantile(phaseWall[0], 0.5), quantile(phaseWall[1], 0.9)
		out.metrics.set("cost_ratio", "ratio", totals.cost/totals.opt)
		out.info["gap_pct"] = 100 * (totals.cost - totals.opt) / totals.opt
		out.info["cost_mean"] = totals.cost / float64(totals.n)
		out.info["requests_low"], out.info["requests_high"] = len(lowMs), len(highMs)
		out.info["p50_ms_low"], out.info["p90_ms_low"] = quantile(lowMs, 0.5), quantile(lowMs, 0.9)
		out.info["p50_ms_high"], out.info["p90_ms_high"] = quantile(highMs, 0.5), quantile(highMs, 0.9)
		return out, nil
	}
	m := out.metrics
	m.set("loadgen.lag_ms_p90", "ms", quantile(lag, 0.9))
	m.set("cluster.queued_max", "count", float64(maxQueued.Load()))
	m.set("cluster.shed", "count", float64(shed))
	m.set("plancache.hit_ratio", "ratio", float64(cache.Hits)/float64(cache.Hits+cache.Misses))
	m.set("plancache.evictions", "count", float64(cache.Evictions))
	shots := append(append([]shot(nil), in.low...), in.high...)
	return out, serveTraced(ctx, cfg, in, shots[:min(serveTraceOps, len(shots))], out)
}

type serveTotals struct {
	opt, cost float64
	n         int
}

func (t *serveTotals) add(o serveTotals) {
	t.opt, t.cost, t.n = t.opt+o.opt, t.cost+o.cost, t.n+o.n
}

// serveCheck verifies every reply — status 200, a valid plan selection
// whose recomputed cost is the reported cost. On a phase's first
// repetition (first == nil) it re-solves a seeded sample directly on a
// fresh Service and requires byte-identical responses under
// CanonicalResponse; on later repetitions every reply must equal the
// first repetition's, under the same canonical form.
func serveCheck(ctx context.Context, cfg config, in *serveInputs, shots []shot, replies, first []reply, out *outcome) (serveTotals, error) {
	var t serveTotals
	var direct *mqopt.Service
	if first == nil {
		srv, err := newServer(cfg.par)
		if err != nil {
			return t, err
		}
		defer srv.close()
		direct = srv.svc
	}
	rng := rand.New(rand.NewSource(splitmix.Split(cfg.seed, -1)))
	for i, r := range replies {
		out.attempted++
		inst := in.insts[shots[i].inst]
		err := func() error {
			if r.err != nil {
				return r.err
			}
			if r.status != http.StatusOK {
				return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
			}
			var resp cluster.SolveResponse
			if err := json.Unmarshal(r.body, &resp); err != nil {
				return err
			}
			if err := checkSolution(inst.p, resp.Solution, resp.Cost, inst.opt); err != nil {
				return err
			}
			t.add(serveTotals{opt: inst.opt, cost: resp.Cost, n: 1})
			if first != nil {
				return sameCanonical(r.body, first[i].body)
			}
			if i == 0 || rng.Intn(serveCheckEvery) == 0 {
				_, want, err := solveInProcess(ctx, direct, shots[i].body)
				if err != nil {
					return fmt.Errorf("direct solve: %w", err)
				}
				return sameCanonical(r.body, want)
			}
			return nil
		}()
		if err != nil {
			out.failed++
			warnf("serve-zipf: request %d: %v", i, err)
		}
	}
	return t, nil
}

// solveInProcess runs a wire request through the node's public stages
// without HTTP: decode, build, solve, encode.
func solveInProcess(ctx context.Context, svc *mqopt.Service, body []byte) (*mqopt.Result, []byte, error) {
	req, _, err := cluster.DecodeSolveRequest(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)), 0)
	if err != nil {
		return nil, nil, err
	}
	sreq, err := cluster.BuildRequest(req)
	if err != nil {
		return nil, nil, err
	}
	res, err := svc.Solve(ctx, sreq)
	if err != nil {
		return nil, nil, err
	}
	raw, err := encodeResponse(res)
	return res, raw, err
}

// encodeResponse renders a result exactly as the node writes it.
func encodeResponse(res *mqopt.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(cluster.EncodeResponse(res))
	return buf.Bytes(), err
}

// sameCanonical compares two /solve responses under CanonicalResponse,
// which zeroes the wall-clock fields.
func sameCanonical(got, want []byte) error {
	a, err := cluster.CanonicalResponse(got)
	if err != nil {
		return err
	}
	b, err := cluster.CanonicalResponse(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("response differs from the reference solve")
	}
	return nil
}

// serveTraced replays a prefix of the stream one request at a time on
// four fresh nodes, each warmed with the same prefix so their caches
// agree: over HTTP directly, over HTTP through a router, in process
// untraced, and in process with spans around decode, solve and encode.
// The differences between the paths give the wire and router costs.
func serveTraced(ctx context.Context, cfg config, in *serveInputs, shots []shot, out *outcome) error {
	servers := make([]*server, 4)
	for i := range servers {
		s, err := newServer(cfg.par)
		if err != nil {
			return err
		}
		defer s.close()
		servers[i] = s
	}
	direct, routed, plainSrv, tracedSrv := servers[0], servers[1], servers[2], servers[3]
	client := newClient()
	defer client.CloseIdleConnections()
	router := cluster.NewRouter(cluster.RouterConfig{Peers: []string{routed.http.URL}, Client: client})
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	for _, s := range servers {
		if err := warm(ctx, client, s.http.URL+"/solve", in.warmup); err != nil {
			return err
		}
	}

	roundTrips := func(url string) ([]time.Duration, error) {
		var ds []time.Duration
		for i, s := range shots {
			start := time.Now()
			status, _, err := post(ctx, client, url, s.body)
			ds = append(ds, time.Since(start))
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("request %d: status %d", i, status)
			}
		}
		return ds, nil
	}
	runtime.GC()
	rttDirect, err := roundTrips(direct.http.URL + "/solve")
	if err != nil {
		return err
	}
	runtime.GC()
	rttRouted, err := roundTrips(front.URL + "/solve")
	if err != nil {
		return err
	}

	var plain []time.Duration
	runtime.GC()
	allocMiB, gcs, err := memDelta(func() error {
		for _, s := range shots {
			start := time.Now()
			_, _, err := solveInProcess(ctx, plainSrv.svc, s.body)
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

	tr := newTracer()
	var runs, qubits, maxChain int
	var broken, ttb []float64
	runtime.GC()
	for i, s := range shots {
		root := tr.begin("op", i, -1)
		sp := tr.begin("cluster.decode", i, root)
		req, _, err := cluster.DecodeSolveRequest(httptest.NewRecorder(),
			httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(s.body)), 0)
		var sreq mqopt.Request
		if err == nil {
			sreq, err = cluster.BuildRequest(req)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		before := tracedSrv.svc.Stats().Cache.Hits
		start := time.Now()
		res, err := tracedSrv.svc.Solve(ctx, sreq)
		end := time.Now()
		if err != nil {
			return err
		}
		name := "plancache.miss"
		if tracedSrv.svc.Stats().Cache.Hits > before {
			name = "plancache.hit"
		}
		tr.add(name, i, root, start, end)
		sp = tr.begin("cluster.encode", i, root)
		_, err = encodeResponse(res)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		if a := res.Annealer; a != nil {
			runs += a.Runs
			qubits += a.QubitsUsed
			maxChain = max(maxChain, a.MaxChainLength)
			broken = append(broken, a.BrokenChainRate)
		}
		if n := len(res.Incumbents); n > 0 {
			ttb = append(ttb, ms(res.Incumbents[n-1].Elapsed))
		}
	}
	if err := tr.write(spanPath(cfg)); err != nil {
		return err
	}
	if err := composeStages(ctx, cfg, in, shots[:min(serveComposeOps, len(shots))], out); err != nil {
		return err
	}

	n := float64(len(shots))
	self := tr.selfTimes()
	perOp := func(name string) float64 { return ms(self[name]) / n }
	stageSum := perOp("cluster.decode") + perOp("plancache.hit") + perOp("plancache.miss") + perOp("cluster.encode")
	directMs, plainMs := meanMs(rttDirect), meanMs(plain)
	httpMs := directMs - plainMs
	m := out.metrics
	m.set("plancache.hit_ms", "ms", meanMs(tr.durations("plancache.hit")))
	m.set("plancache.miss_ms", "ms", meanMs(tr.durations("plancache.miss")))
	m.set("cluster.decode_us", "us", 1000*perOp("cluster.decode"))
	m.set("cluster.encode_us", "us", 1000*perOp("cluster.encode"))
	m.set("cluster.http_ms", "ms", httpMs)
	m.set("cluster.router_hop_ms", "ms", meanMs(rttRouted)-directMs)
	m.set("anneal.runs", "count", float64(runs))
	m.set("embedding.qubits", "count", float64(qubits)/n)
	m.set("embedding.max_chain", "count", float64(maxChain))
	m.set("dwave.broken_chain_rate", "ratio", mean(broken))
	m.set("dwave.modeled_ttb_ms", "ms", mean(ttb))
	m.set("runtime.alloc_mib_per_op", "MiB", allocMiB/n)
	m.set("runtime.gc_cycles_per_op", "count", float64(gcs)/n)
	m.set("trace.unaccounted_pct", "%", 100*(directMs-stageSum-httpMs)/directMs)
	m.set("trace.overhead_pct", "%", 100*(meanMs(tr.durations("op"))-plainMs)/plainMs)
	out.info["traced_ops"] = len(shots)
	out.info["plancache_hits_traced"] = len(tr.durations("plancache.hit"))
	return nil
}

// stageMetrics are the per-layer metrics of the annealer pipeline's
// stages, which only a composed solve can split out.
var stageMetrics = []string{
	"anneal.sample_ms", "anneal.spin_updates", "anneal.ns_per_spin_update", "anneal.compile_ms",
	"core.decode_ms", "core.other_ms", "core.decoded_ratio",
	"logical.map_ms", "embedding.embed_ms", "embedding.phys_ms",
}

// composeStages splits the solves of the given requests into the
// pipeline's stages (see traceSolves): the same instance, seed and run
// budget, solved directly rather than through the node.
func composeStages(ctx context.Context, cfg config, in *serveInputs, shots []shot, out *outcome) error {
	var list []paperInstance
	for _, s := range shots {
		inst := in.insts[s.inst]
		inner, _, err := internalForm(inst.p)
		if err != nil {
			return err
		}
		list = append(list, paperInstance{p: inst.p, inner: inner, opt: inst.opt, seed: s.seed, runs: serveRuns})
	}
	stages := newOutcome()
	path := strings.TrimSuffix(spanPath(cfg), ".ndjson") + "-stages.ndjson"
	if err := traceSolves(ctx, list, path, stages); err != nil {
		return err
	}
	for _, name := range stageMetrics {
		out.metrics[name] = stages.metrics[name]
	}
	out.attempted += stages.attempted
	out.failed += stages.failed
	return nil
}
