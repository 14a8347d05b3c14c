package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/sim"
)

// kernel-churn: the bare sim.Kernel with no network on top. 4096 live Procs
// keep the event heap thousands of entries deep, and nearly every wake
// resumes a DIFFERENT goroutine than the one that parked — the general case
// of the kernel's direct handoff, where the one-Proc `kernel-event-loop` row
// of fmbench -perf only ever times the switch-free self-wake.
//
// Population (of churnProcs): half tickers with seeded 1-1000 ns delays, a
// quarter producer/consumer pairs over a cap-8 sim.Chan, a quarter contending
// for sim.Resources in groups of 64. The three populations are sized to end
// at about the same virtual time, so the mix holds for the whole phase.

type churnSize struct {
	procs     int // total Procs; a multiple of 256
	ticks     int // Delays per ticker
	msgs      int // messages per producer/consumer pair
	acquires  int // acquisitions per contender
	groupSize int // contenders per Resource
}

var churnFull = churnSize{procs: 4096, ticks: 1300, msgs: 1000, acquires: 320, groupSize: 64}

const churnDelayTable = 1 << 16

// churnInputs is everything kernel-churn draws from the seed.
type churnInputs struct {
	delays []sim.Time // 1..1000 ns
}

func newChurnInputs(seed int64) churnInputs {
	rng := rand.New(rand.NewSource(seedFor(seed, "kernel-churn")))
	d := make([]sim.Time, churnDelayTable)
	for i := range d {
		d[i] = sim.Time(1 + rng.Intn(1000))
	}
	return churnInputs{delays: d}
}

// delay is Proc id's j-th delay: each Proc walks the shared table from its
// own offset with its own odd stride.
func (in churnInputs) delay(id, j int) sim.Time {
	return in.delays[(id*7919+j*(2*id+1))&(churnDelayTable-1)]
}

// churnSim is one built kernel-churn simulation.
type churnSim struct {
	k     *sim.Kernel
	waits []float64 // Resource request-to-grant waits, virtual us
	errs  []string

	msgsDone, acquiresDone int64
}

// buildChurn spawns the populations selected by the three counts (Procs
// each) on a fresh kernel. rec, when non-nil, records spans for one Proc in
// 64 (every call of 4096 Procs would be millions of spans).
func buildChurn(in churnInputs, sz churnSize, tickers, pairProcs, contenders int, rec *recorder) *churnSim {
	cs := &churnSim{k: sim.NewKernel()}
	k := cs.k
	traced := func(id int) *recorder {
		if id%64 == 0 {
			return rec
		}
		return nil
	}
	id := 0
	for i := 0; i < tickers; i++ {
		id, r := i, traced(i)
		k.Spawn("tick", func(p *sim.Proc) {
			var sum sim.Time
			for j := 0; j < sz.ticks; j++ {
				d := in.delay(id, j)
				s := r.begin(p, id, 0, "sim", "Proc.Delay", int64(j))
				p.Delay(d)
				r.end(p, s)
				sum += d
			}
			if p.Now() != sum {
				cs.errs = append(cs.errs, fmt.Sprintf("ticker %d woke at %v, its delays sum to %v", id, p.Now(), sum))
			}
		})
	}
	id += tickers
	for i := 0; i < pairProcs/2; i++ {
		prod, cons := id+2*i, id+2*i+1
		ch := sim.NewChan[uint64](k, 8)
		rp, rc := traced(prod), traced(cons)
		k.Spawn("prod", func(p *sim.Proc) {
			for j := 0; j < sz.msgs; j++ {
				p.Delay(in.delay(prod, j))
				s := rp.begin(p, prod, 0, "sim", "Chan.Send", int64(j))
				ch.Send(p, uint64(prod)<<32|uint64(j))
				rp.end(p, s)
			}
		})
		k.Spawn("cons", func(p *sim.Proc) {
			for j := 0; j < sz.msgs; j++ {
				s := rc.begin(p, cons, 0, "sim", "Chan.Recv", int64(j))
				v := ch.Recv(p)
				rc.end(p, s)
				if v != uint64(prod)<<32|uint64(j) {
					cs.errs = append(cs.errs, fmt.Sprintf("pair %d: message %d arrived as %#x", prod, j, v))
				}
				cs.msgsDone++
				p.Delay(in.delay(cons, j))
			}
		})
	}
	id += pairProcs
	for g := 0; g < contenders/sz.groupSize; g++ {
		res := sim.NewResource(k, "res", 1)
		holders := 0
		for i := 0; i < sz.groupSize; i++ {
			cid := id + g*sz.groupSize + i
			r := traced(cid)
			k.Spawn("cont", func(p *sim.Proc) {
				for j := 0; j < sz.acquires; j++ {
					t0 := p.Now()
					s := r.begin(p, cid, 0, "sim", "Resource.Acquire", int64(j))
					res.Acquire(p, 1)
					r.end(p, s)
					cs.waits = append(cs.waits, (p.Now() - t0).Micros())
					if holders++; holders != 1 {
						cs.errs = append(cs.errs, fmt.Sprintf("resource group %d held by %d Procs at once", g, holders))
					}
					// Short holds (1-63 ns) keep a 64-deep queue turning over
					// in about the time a ticker takes for as many Delays.
					p.Delay(in.delay(cid, j)/16 + 1)
					holders--
					res.Release(1)
					cs.acquiresDone++
				}
			})
		}
	}
	return cs
}

func runChurn(sz churnSize) func(seed int64, rec *recorder) (rep, error) {
	return func(seed int64, rec *recorder) (rep, error) {
		r := rep{exact: map[string]float64{}}
		clk := startRep()
		in := newChurnInputs(seed)
		cs := buildChurn(in, sz, sz.procs/2, sz.procs/4, sz.procs/4, rec)
		clk.beginPhase()
		err := cs.k.Run()
		clk.finish(&r)
		if err != nil {
			return r, fmt.Errorf("kernel-churn: %w", err)
		}
		// An op is one kernel event; the spawn wake-ups are scheduled in
		// set-up but run in the phase, so the whole count belongs to it.
		r.events = cs.k.Events()
		r.ops = int64(r.events)
		for _, e := range cs.errs {
			r.failf("%s", e)
		}
		wantMsgs := int64(sz.procs/8) * int64(sz.msgs)
		wantAcq := int64(sz.procs/4) * int64(sz.acquires)
		if cs.msgsDone != wantMsgs || cs.acquiresDone != wantAcq {
			r.failf("kernel-churn completed %d/%d handoffs and %d/%d acquisitions",
				cs.msgsDone, wantMsgs, cs.acquiresDone, wantAcq)
		}
		r.failed = int64(len(r.problems))
		r.exact["virt_time_us"] = cs.k.Now().Micros()
		r.exact["sim.events"] = float64(r.events)
		r.setLatency(summarize(cs.waits))
		return r, nil
	}
}

// churnLayers times the kernel's mechanisms apart: the ticker phase at 1, 64
// and 4096 live Procs (self-wake, goroutine handoff, heap depth) and, where
// the timed runs use one P, on every P (cross-P handoff), then the Chan and
// Resource populations alone.
func churnLayers(sz churnSize) func(seed int64, rec *recorder, m layerMetrics) ([]string, error) {
	return func(seed int64, rec *recorder, m layerMetrics) ([]string, error) {
		in := newChurnInputs(seed)
		tickPhase := func(procs int) (float64, error) {
			s := sz
			s.ticks = sz.ticks * (sz.procs / 2) / procs // same event count at every width
			cs := buildChurn(in, s, procs, 0, 0, nil)
			t0 := time.Now()
			if err := cs.k.Run(); err != nil {
				return 0, err
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(cs.k.Events()), nil
		}
		for _, w := range []struct {
			name  string
			procs int
		}{{"sim.ns_per_event.p1", 1}, {"sim.ns_per_event.p64", 64}, {"sim.ns_per_event.p4096", sz.procs}} {
			v, err := tickPhase(w.procs)
			if err != nil {
				return nil, err
			}
			m[w.name] = v
		}
		prev := runtime.GOMAXPROCS(parallelProcs())
		v, err := tickPhase(sz.procs)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		m["sim.ns_per_event.gomaxprocs_n"] = v

		cs := buildChurn(in, sz, 0, sz.procs, 0, nil)
		t0 := time.Now()
		if err := cs.k.Run(); err != nil {
			return nil, err
		}
		m["sim.chan_ns_per_handoff"] = float64(time.Since(t0).Nanoseconds()) / float64(cs.msgsDone)

		cs = buildChurn(in, sz, 0, 0, sz.procs, nil)
		t0 = time.Now()
		if err := cs.k.Run(); err != nil {
			return nil, err
		}
		m["sim.resource_ns_per_acquire"] = float64(time.Since(t0).Nanoseconds()) / float64(cs.acquiresDone)
		return nil, nil
	}
}
