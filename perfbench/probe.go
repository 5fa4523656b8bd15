package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on gives each virtual CPU a speed that
// changes from one moment to the next: the same fixed loop runs 1.7×
// slower for stretches of tens to hundreds of milliseconds, on either
// CPU, whatever this process does (another tenant's work on the same
// physical core). Per-operation minima over a run cannot filter that
// when slow stretches dominate the run, and the share of slow stretches
// drifts over minutes, so raw wall times of the same code spread by more
// than their bounds between runs.
//
// The benchmark therefore measures the host's speed at the moment of
// each operation with a probe — a fixed simulated-annealing sweep over a
// small Ising model, the same kind of work as the annealer's kernel, in
// the benchmark's own code so that no change to the repository moves
// it — and reports times scaled to the speed at which the probe takes
// probeRef:
//
//	scaled = wall × probeRef / probe
//
// A change to the program moves the scaled times as it moves the wall
// times; a change in the host's speed moves the probe with them.

// probeRef is the probe's duration on an uncontended CPU of the machine
// the benchmark was written on (a 2-vCPU Intel Xeon virtual machine), so
// that scaled times there read as uncontended wall times.
const probeRef = 120 * time.Microsecond

const (
	probeSpins  = 64
	probeDegree = 6
	probeSweeps = 80
)

// probeModel is a fixed random Ising model: local fields and a sparse
// symmetric coupling list, drawn from a fixed xorshift stream.
type probeModel struct {
	h   []float64
	nbr [][]int32
	j   [][]float64
}

func newProbeModel() *probeModel {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := &probeModel{h: make([]float64, probeSpins), nbr: make([][]int32, probeSpins), j: make([][]float64, probeSpins)}
	for i := range m.h {
		m.h[i] = float64(int(next()%9)) - 4
	}
	for i := 0; i < probeSpins; i++ {
		for k := 0; k < probeDegree/2; k++ {
			t := int(next() % probeSpins)
			if t == i {
				continue
			}
			v := float64(int(next()%5)) - 2
			m.nbr[i], m.j[i] = append(m.nbr[i], int32(t)), append(m.j[i], v)
			m.nbr[t], m.j[t] = append(m.nbr[t], int32(i)), append(m.j[t], v)
		}
	}
	return m
}

// anneal runs probeSweeps Metropolis sweeps from the all-up state on a
// linear inverse-temperature schedule and returns the energy change, so
// the work cannot be optimised away.
func (m *probeModel) anneal(s []float64) float64 {
	x := uint64(88172645463325252)
	for i := range s {
		s[i] = 1
	}
	e := 0.0
	for sw := 0; sw < probeSweeps; sw++ {
		beta := 0.1 + 3*float64(sw)/probeSweeps
		for i := range s {
			f := m.h[i]
			for k, t := range m.nbr[i] {
				f += m.j[i][k] * s[t]
			}
			d := 2 * s[i] * f
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if d <= 0 || float64(x>>11)/(1<<53) < math.Exp(-beta*d) {
				s[i] = -s[i]
				e += d
			}
		}
	}
	return e
}

// A probe owns its model and spin buffer, so concurrent probes share
// nothing.
type probe struct {
	m    *probeModel
	s    []float64
	sink float64
}

func newProbe() *probe { return &probe{m: newProbeModel(), s: make([]float64, probeSpins)} }

// run times one probe sweep.
func (p *probe) run() time.Duration {
	start := time.Now()
	p.sink += p.m.anneal(p.s)
	return time.Since(start)
}

// scale is the factor that brings a wall time measured while the probe
// took d to the reference speed.
func scale(d time.Duration) float64 { return float64(probeRef) / float64(d) }

// prober samples the host's speed in the background while an open-loop
// phase runs: one probe every probeEvery, each stamped with its midpoint.
type prober struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mid  []time.Time
	dur  []time.Duration
}

const probeEvery = 4 * time.Millisecond

func startProber() *prober {
	pr := &prober{stop: make(chan struct{})}
	pr.wg.Add(1)
	go func() {
		defer pr.wg.Done()
		p := newProbe()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-pr.stop:
				return
			case <-t.C:
			}
			start := time.Now()
			d := p.run()
			pr.mid = append(pr.mid, start.Add(d/2))
			pr.dur = append(pr.dur, d)
		}
	}()
	return pr
}

// halt stops the prober and waits for it to end; only then may scaleOver
// be called.
func (pr *prober) halt() {
	close(pr.stop)
	pr.wg.Wait()
}

// scaleOver is the scale of the mean probe time over [from, to], or of
// the probe nearest to the interval when none falls inside it.
func (pr *prober) scaleOver(from, to time.Time) float64 {
	if len(pr.mid) == 0 {
		return 1
	}
	lo := sort.Search(len(pr.mid), func(i int) bool { return !pr.mid[i].Before(from) })
	hi := sort.Search(len(pr.mid), func(i int) bool { return pr.mid[i].After(to) })
	if lo >= hi {
		i := min(lo, len(pr.mid)-1)
		if i > 0 && from.Sub(pr.mid[i-1]) < pr.mid[i].Sub(to) {
			i--
		}
		return scale(pr.dur[i])
	}
	var sum time.Duration
	for _, d := range pr.dur[lo:hi] {
		sum += d
	}
	return scale(sum / time.Duration(hi-lo))
}
