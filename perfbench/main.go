// Command perfbench is the repository benchmark. It drives the MQO
// pipeline through its public entry points on one of three workloads
// (paper-solve, serve-zipf, session-stream), checks every output, and
// prints one JSON result line:
//
//	perfbench --workload paper-solve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same inputs run once more with spans recorded around
// the benchmark's own calls into each layer, and the result carries the
// per-layer metrics. README.md documents every workload and metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// par is the annealer parallelism (0: one worker per CPU, the
	// library default); the exact-repeat test also runs 1.
	par int
	// lowRPS and highRPS are serve-zipf's two fixed offered rates.
	lowRPS, highRPS float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one workload run reports. info holds figures printed
// for the reader (sample counts, secondary percentiles) that are not
// part of the result's metric set.
type outcome struct {
	attempted, failed int
	setupS            float64
	metrics           metrics
	info              map[string]any
}

func newOutcome() *outcome { return &outcome{metrics: metrics{}, info: map[string]any{}} }

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"paper-solve":    runPaper,
	"serve-zipf":     runServe,
	"session-stream": runSession,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var seconds, traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: paper-solve, serve-zipf or session-stream")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&traced, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.IntVar(&cfg.par, "parallelism", 0, "annealer workers per solve (0: one per CPU, the library default)")
	fs.Float64Var(&cfg.lowRPS, "low-rps", 25, "serve-zipf: the low offered rate, requests per second")
	fs.Float64Var(&cfg.highRPS, "high-rps", 50, "serve-zipf: the high offered rate, requests per second")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (traced != 0 && traced != 1) || cfg.par < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1, --trace 0|1 and --parallelism ≥ 0\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traced == 1

	// Load comes from this one process: pin the scheduler to the
	// machine's CPUs so every run sees the same thread bound.
	runtime.GOMAXPROCS(runtime.NumCPU())

	steal0, total0 := stealTicks()
	out, err := fn(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		out.info["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if cfg.trace {
		err = out.metrics.complete(perLayer, true)
	} else {
		out.metrics.set("setup_s", "s", out.setupS)
		out.metrics.set("ok_ratio", "ratio", float64(out.attempted-out.failed)/float64(max(out.attempted, 1)))
		out.metrics.set("peak_rss_mib", "MiB", peakRSSMiB())
		err = out.metrics.complete(endToEnd, false)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	correct := out.failed == 0 && out.attempted > 0
	head := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"trace":    cfg.trace,
		"machine":  machineRecord(),
		"info":     out.info,
	}
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	enc.Encode(head)
	enc.Encode(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	if err := w.Flush(); err != nil {
		return 1
	}
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed their output checks\n",
			cfg.workload, out.failed, out.attempted)
		return 1
	}
	return 0
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, with
// their units. Every untraced run reports every end-to-end metric and
// every traced run every per-layer metric; README.md defines each one
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"solve_ms_p50", "ms"}, {"solve_ms_p90", "ms"},
	{"ok_ratio", "ratio"}, {"cost_ratio", "ratio"}, {"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"anneal.sample_ms", "ms"}, {"anneal.runs", "count"}, {"anneal.spin_updates", "count"},
	{"anneal.ns_per_spin_update", "ns"}, {"anneal.compile_ms", "ms"},
	{"core.decode_ms", "ms"}, {"core.other_ms", "ms"}, {"core.decoded_ratio", "ratio"},
	{"logical.map_ms", "ms"}, {"embedding.embed_ms", "ms"}, {"embedding.phys_ms", "ms"},
	{"embedding.qubits", "count"}, {"embedding.max_chain", "count"},
	{"plancache.hit_ratio", "ratio"}, {"plancache.evictions", "count"},
	{"plancache.hit_ms", "ms"}, {"plancache.miss_ms", "ms"},
	{"cluster.decode_us", "us"}, {"cluster.encode_us", "us"}, {"cluster.http_ms", "ms"},
	{"cluster.router_hop_ms", "ms"}, {"cluster.queued_max", "count"}, {"cluster.shed", "count"},
	{"loadgen.lag_ms_p90", "ms"},
	{"session.apply_ms", "ms"}, {"session.dirty_mean", "count"}, {"session.windows", "count"},
	{"session.windows_skipped", "count"}, {"session.skip_ratio", "ratio"}, {"session.runs", "count"},
	{"session.log_bytes", "bytes"}, {"session.replay_ms", "ms"},
	{"dwave.broken_chain_rate", "ratio"}, {"dwave.modeled_ttb_ms", "ms"},
	{"runtime.alloc_mib_per_op", "MiB"}, {"runtime.gc_cycles_per_op", "count"},
	{"trace.unaccounted_pct", "%"}, {"trace.overhead_pct", "%"},
}

// complete checks m against defs: no unknown names, matching units, and
// every name present. With fillZero a layer the workload's path does not
// cross reads 0 (README.md lists which layers each workload exercises).
func (m metrics) complete(defs []metricDef, fillZero bool) error {
	known := make(map[string]string, len(defs))
	for _, d := range defs {
		known[d.name] = d.unit
		if _, ok := m[d.name]; !ok && fillZero {
			m.set(d.name, d.unit, 0)
		}
	}
	for name, v := range m {
		unit, ok := known[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %q is not declared", name)
		case v.Unit != unit:
			return fmt.Errorf("metric %q has unit %q, declared %q", name, v.Unit, unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %q is not finite", name)
		}
	}
	if len(m) != len(defs) {
		return fmt.Errorf("%d of %d metrics reported", len(m), len(defs))
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// machineRecord identifies the machine class a result was measured on;
// results are comparable only within one class.
func machineRecord() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the machine's CPU time stolen by the host and its
// total CPU time, in clock ticks, from /proc/stat (zeros elsewhere).
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the CPU time (user and system) the process has used, on all
// threads. Time the host steals from the virtual CPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter adds up the process CPU time of a workload's timed calls, and
// the probe scales of the calls it probes.
type meter struct {
	cpu    time.Duration
	ops    int
	probe  *probe
	scales []float64
}

// call runs fn as ops operations and returns its wall time.
func (m *meter) call(ops int, fn func()) time.Duration {
	c0, start := cpuTime(), time.Now()
	fn()
	wall := time.Since(start)
	m.cpu += cpuTime() - c0
	m.ops += ops
	return wall
}

// sample is one timed operation: its wall time and that time scaled to
// the probe's reference speed (see probe.go), both in ms.
type sample struct{ wall, scaled float64 }

// probed runs fn as one operation between two probes on the calling
// goroutine and scales its wall time by the mean of the two.
func (m *meter) probed(fn func()) sample {
	if m.probe == nil {
		m.probe = newProbe()
	}
	p0 := m.probe.run()
	wall := ms(m.call(1, fn))
	k := scale((p0 + m.probe.run()) / 2)
	m.scales = append(m.scales, k)
	return sample{wall: wall, scaled: wall * k}
}

func (m *meter) msPerOp() float64 { return ms(m.cpu) / float64(max(m.ops, 1)) }

// reportTimes sets the gated percentiles from the per-operation scaled
// times and puts the raw wall-time percentiles and the host's mean speed
// (the mean probe scale; 1 is the reference speed) on the info line.
func (o *outcome) reportTimes(scaled, wall []float64, m *meter) {
	o.metrics.set("solve_ms_p50", "ms", quantile(scaled, 0.5))
	o.metrics.set("solve_ms_p90", "ms", quantile(scaled, 0.9))
	o.info["wall_ms_p50"], o.info["wall_ms_p90"] = quantile(wall, 0.5), quantile(wall, 0.9)
	o.info["cpu_ms_per_op"] = m.msPerOp()
	o.info["host_speed"] = mean(m.scales)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRepeats is how many times a run builds its inputs; setup_s is
// the median, so one slow build (a page-fault storm, a neighbour's
// burst) does not move it.
const setupRepeats = 5

// timedSetup runs build setupRepeats times and returns the last result
// with the median set-up time in seconds, each build's wall time scaled
// by the host's speed sampled in the background while it ran (see
// probe.go). Each build starts from a collected heap.
func timedSetup[T any](build func() (T, error)) (T, float64, error) {
	var out T
	secs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		pr := startProber()
		start := time.Now()
		v, err := build()
		end := time.Now()
		pr.halt()
		if err != nil {
			return out, 0, err
		}
		secs = append(secs, end.Sub(start).Seconds()*pr.scaleOver(start, end))
		out = v
	}
	return out, quantile(secs, 0.5), nil
}

// minPasses is the least number of times a closed-loop workload runs its
// operation list. The work an operation causes repeats exactly on every
// pass; the host's speed and its preemption bursts do not.
const minPasses = 3

// timePasses runs op(pass, i) for i in [0, n), pass after pass, until
// the run's time is up and at least minPasses passes are done. op does
// any preparation untimed and returns the sample of its timed call.
// timePasses returns every operation's median scaled time and minimum
// wall time over the passes, in ms, and the number of operations run.
func timePasses(seconds time.Duration, n int, op func(pass, i int) (sample, error)) (scaled, wall []float64, ops int, err error) {
	samples := make([][]float64, n)
	wall = make([]float64, n)
	for i := range wall {
		wall[i] = math.Inf(1)
	}
	summarize := func() ([]float64, []float64, int, error) {
		scaled := make([]float64, n)
		for i, xs := range samples {
			scaled[i] = quantile(xs, 0.5)
		}
		return scaled, wall, ops, nil
	}
	runtime.GC()
	deadline := time.Now().Add(seconds)
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		for i := 0; i < n; i++ {
			if pass >= minPasses && !time.Now().Before(deadline) {
				return summarize()
			}
			d, err := op(pass, i)
			if err != nil {
				return nil, nil, ops, err
			}
			samples[i] = append(samples[i], d.scaled)
			wall[i] = min(wall[i], d.wall)
			ops++
		}
	}
	return summarize()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memDelta measures the heap allocation and GC cycles of fn.
func memDelta(fn func() error) (allocMiB float64, gcCycles uint32, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), after.NumGC - before.NumGC, err
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
