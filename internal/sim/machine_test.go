package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// The tests below hold a Machine to its definition: stepped by the
// dispatcher, it must be indistinguishable — to itself and to everything else
// in the simulation — from the same Step sequence run on a goroutine Proc
// that parks between steps, which is what `StartX; park` ≡ `X` promises.

// onGoroutine drives m the way the blocking primitives drive their Start*
// halves: on a goroutine daemon, a park after each Step.
func onGoroutine(k *Kernel, name string, m Machine) {
	k.SpawnDaemon(name, func(p *Proc) {
		for {
			m.Step(p)
			p.Park()
		}
	})
}

// Script steps: each is one blocking call of the loop a script stands for,
// or a pair of them holding a Resource across the second.
const (
	opDelay    = iota // Delay(d), d often zero
	opRecv            // ch.Recv
	opSend            // ch.Send
	opUse             // res.Use(d): res.Acquire; Delay(d); res.Release
	opHoldSend        // res.Acquire; ch.Send; res.Release: a link holding its wire under back-pressure
	opKinds
)

type scriptOp struct {
	kind int
	d    Time
	ch   *Chan[int]
	res  *Resource
}

// scripted is a Machine that loops over a fixed script.
type scripted struct {
	r     *machRun
	name  string
	ops   []scriptOp
	pc    int  // index into ops
	stage int  // within opHoldSend: how many of its three calls are made; within opUse: begun
	use   Hold // the opUse under way
	slot  int
	sent  int
}

func (m *scripted) Step(p *Proc) {
	r := m.r
	r.log = append(r.log, fmt.Sprintf("%v #%d %s pc=%d.%d", p.Now(), p.k.seq, m.name, m.pc, m.stage))
	for {
		op := m.ops[m.pc]
		next := func() { m.pc, m.stage = (m.pc+1)%len(m.ops), 0 }
		switch op.kind {
		case opDelay:
			next()
			p.StartDelay(op.d)
			return
		case opRecv:
			next()
			if !r.count(opRecv, op.ch.StartRecv(p, &m.slot)) {
				return
			}
		case opSend:
			next()
			m.sent++
			if !r.count(opSend, op.ch.StartSend(p, m.sent)) {
				return
			}
		case opUse:
			if m.stage == 0 {
				m.stage, m.use = 1, op.res.StartUse(op.d)
			}
			if !m.use.Step(p) {
				return
			}
			next()
		default: // opHoldSend
			m.stage++
			switch m.stage {
			case 1:
				if !r.count(opUse, op.res.StartAcquire(p, 1)) {
					return
				}
			case 3:
				op.res.Release(1)
				next()
			default:
				m.sent++
				if !r.count(opHoldSend, op.ch.StartSend(p, m.sent)) {
					return
				}
			}
		}
	}
}

// machRun is one seeded simulation: scripted Machines sharing a few Chans
// (rendezvous, one slot, a few) and Resources, and goroutine Procs feeding,
// draining and contending for the same objects so nothing wedges for good.
type machRun struct {
	k   *Kernel
	log []string // every resumption of everything
	// Start* outcomes by op kind: [queued, immediate].
	outcomes [opKinds][2]int
}

func (r *machRun) count(kind int, immediate bool) bool {
	i := 0
	if immediate {
		i = 1
	}
	r.outcomes[kind][i]++
	return immediate
}

func (r *machRun) note(p *Proc) {
	r.log = append(r.log, fmt.Sprintf("%v #%d %s", p.Now(), p.k.seq, p.Name()))
}

func (r *machRun) state(what string, err error) {
	r.log = append(r.log, fmt.Sprintf("%s: err=%v now=%v events=%d live=%d", what, err, r.k.Now(), r.k.Events(), r.k.Live()))
}

// newMachRun builds the scenario; dispatcher selects SpawnMachine over the
// goroutine driver for the scripted Machines. Everything random is drawn
// here, so the two variants are handed identical inputs.
func newMachRun(seed int64, dispatcher bool) *machRun {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	r := &machRun{k: k}
	chans := []*Chan[int]{NewChan[int](k, 0), NewChan[int](k, 1), NewChan[int](k, 3)}
	ress := []*Resource{NewResource(k, "r0", 1), NewResource(k, "r1", 2)}
	delay := func() Time {
		if rng.Intn(3) == 0 {
			return 0
		}
		return Time(rng.Intn(4)) * 50
	}
	for i := 0; i < 6; i++ {
		m := &scripted{r: r, name: fmt.Sprintf("m%d", i)}
		for j := 3 + rng.Intn(6); j > 0; j-- {
			m.ops = append(m.ops, scriptOp{
				kind: rng.Intn(opKinds), d: delay(),
				ch: chans[rng.Intn(len(chans))], res: ress[rng.Intn(len(ress))],
			})
		}
		// Every script passes time somewhere, or it could spin at one instant.
		m.ops = append(m.ops, scriptOp{kind: opDelay, d: Time(20 + rng.Intn(100))})
		if dispatcher {
			k.SpawnMachine(m.name, m)
		} else {
			onGoroutine(k, m.name, m)
		}
	}
	for i, ch := range chans {
		ch, feed, drain := ch, Time(30+rng.Intn(200)), Time(30+rng.Intn(200))
		k.SpawnDaemon(fmt.Sprintf("feed%d", i), func(p *Proc) {
			for n := 0; ; n++ {
				r.note(p)
				p.Delay(feed)
				ch.Send(p, 1000+n)
			}
		})
		k.SpawnDaemon(fmt.Sprintf("drain%d", i), func(p *Proc) {
			for {
				r.note(p)
				p.Delay(drain)
				ch.Recv(p)
			}
		})
	}
	for i, res := range ress {
		res, hold := res, Time(rng.Intn(3))*40
		k.SpawnDaemon(fmt.Sprintf("hold%d", i), func(p *Proc) {
			for {
				r.note(p)
				res.Use(p, hold)
				p.Delay(70)
			}
		})
	}
	return r
}

var machSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 1998, 1999, 2000, 2001, 77777}

func TestMachineMatchesGoroutineDriver(t *testing.T) {
	var total [opKinds][2]int
	for _, seed := range machSeeds {
		run := func(dispatcher bool) *machRun {
			r := newMachRun(seed, dispatcher)
			r.state("until", r.k.RunUntil(10*Microsecond))
			r.state("before", r.k.RunBefore(20*Microsecond+1))
			r.state("until late", r.k.RunUntil(40*Microsecond))
			r.k.Shutdown()
			r.state("shut down", nil)
			return r
		}
		ref, got := run(false), run(true)
		for i := range ref.log {
			if i >= len(got.log) || ref.log[i] != got.log[i] {
				g := "<log ends>"
				if i < len(got.log) {
					g = got.log[i]
				}
				t.Fatalf("seed %d: resumption %d: on goroutines %q, on the dispatcher %q", seed, i, ref.log[i], g)
			}
		}
		if len(got.log) != len(ref.log) {
			t.Fatalf("seed %d: %d resumptions on goroutines, %d on the dispatcher", seed, len(ref.log), len(got.log))
		}
		if ref.outcomes != got.outcomes {
			t.Fatalf("seed %d: Start* outcomes %v on goroutines, %v on the dispatcher", seed, ref.outcomes, got.outcomes)
		}
		if len(got.log) < 1000 {
			t.Fatalf("seed %d: only %d resumptions; the scenario wedged", seed, len(got.log))
		}
		for kind := range total {
			total[kind][0] += got.outcomes[kind][0]
			total[kind][1] += got.outcomes[kind][1]
		}
	}
	for kind := opRecv; kind < opKinds; kind++ {
		if total[kind][0] < 50 || total[kind][1] < 50 {
			t.Fatalf("op kind %d: %d queued, %d immediate over all seeds; the mix no longer covers both", kind, total[kind][0], total[kind][1])
		}
	}
}

// failing is a Machine that ticks every 100 ns and misbehaves at its third
// wake.
type failing struct {
	wakes int
	how   func(p *Proc)
}

func (m *failing) Step(p *Proc) {
	if m.wakes++; m.wakes == 3 {
		m.how(p)
	}
	p.StartDelay(100)
}

// A panic in Step fails the run in the Machine's name with the message a
// goroutine Proc's panic gets, and a Machine that calls a blocking primitive
// is such a panic — naming it — not a dispatcher blocked forever.
func TestMachinePanicFailsRunNamingProc(t *testing.T) {
	firstLine := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return strings.SplitN(err.Error(), "\n", 2)[0]
	}
	run := func(dispatcher bool, how func(p *Proc)) (string, Time) {
		k := NewKernel()
		k.Spawn("bystander", func(p *Proc) { p.Delay(Microsecond) })
		if dispatcher {
			k.SpawnMachine("fw", &failing{how: how})
		} else {
			onGoroutine(k, "fw", &failing{how: how})
		}
		return firstLine(k.Run()), k.Now()
	}
	boom := func(*Proc) { panic("boom") }
	got, at := run(true, boom)
	if want, wantAt := run(false, boom); got != want || at != wantAt || got != `sim: proc "fw" panicked: boom` {
		t.Fatalf("Step panic: %q at %v on the dispatcher, %q at %v on a goroutine", got, at, want, wantAt)
	}
	for name, block := range map[string]func(p *Proc){
		"Delay":   func(p *Proc) { p.Delay(1) },
		"Recv":    func(p *Proc) { NewChan[int](p.Kernel(), 0).Recv(p) },
		"Acquire": func(p *Proc) { r := NewResource(p.Kernel(), "r", 1); r.Acquire(p, 1); r.Acquire(p, 1) },
		"Park":    func(p *Proc) { p.Park() },
	} {
		got, at := run(true, block)
		if !strings.HasPrefix(got, `sim: proc "fw" panicked: sim: proc "fw" is a Machine`) || at != 200 {
			t.Fatalf("%s from a Step: run ended %q at %v", name, got, at)
		}
	}
}

// Machines have no goroutine to answer the unwind handshake: a drained run,
// a stopped run and Shutdown after a bounded run must all retire them —
// mid-delay, queued on a Chan, queued on a Resource — without it.
func TestMachineRetiredWithoutHandshake(t *testing.T) {
	build := func() *Kernel {
		k := NewKernel()
		ch, res := NewChan[int](k, 0), NewResource(k, "r", 1)
		r := &machRun{k: k}
		k.SpawnMachine("ticking", &scripted{r: r, name: "ticking", ops: []scriptOp{{kind: opDelay, d: 300}}})
		k.SpawnMachine("receiving", &scripted{r: r, name: "receiving", ops: []scriptOp{{kind: opRecv, ch: ch}}})
		k.SpawnMachine("acquiring", &scripted{r: r, name: "acquiring", ops: []scriptOp{{kind: opUse, res: res}}})
		k.Spawn("holder", func(p *Proc) {
			res.Acquire(p, 1)
			p.Delay(Microsecond)
		})
		return k
	}
	k := build()
	k.At(500, k.Stop)
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run: %v", err)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d Procs still registered after a stopped run", len(k.procs))
	}
	k = build()
	if err := k.RunUntil(500); err != nil || k.Live() != 1 {
		t.Fatalf("bounded run: err=%v live=%d", err, k.Live())
	}
	k.Shutdown()
	if len(k.procs) != 0 {
		t.Fatalf("%d Procs still registered after Shutdown", len(k.procs))
	}
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("run after shutdown: %v", err)
	}
}

// A goroutine Proc is given its goroutine at its first wake, so spawning
// costs none, and a Proc unwound before it ever starts — a run stopped first,
// a bounded run shut down — is retired by bookkeeping, as a Machine is.
func TestProcGetsItsGoroutineAtFirstWake(t *testing.T) {
	const n, slack = 200, 16
	build := func() (*Kernel, *int) {
		k, started := NewKernel(), new(int)
		for i := 1; i <= n; i++ {
			k.SpawnAt(Time(i)*Microsecond, "late", func(p *Proc) { *started++; p.Delay(Second) })
		}
		k.SpawnDaemon("service", func(p *Proc) { *started++; p.Delay(Second) })
		return k, started
	}
	before := runtime.NumGoroutine()
	k, started := build()
	if grew := runtime.NumGoroutine() - before; grew > slack {
		t.Fatalf("spawning %d Procs started %d goroutines", n+1, grew)
	}
	if err := k.RunUntil(n / 2 * Microsecond); err != nil || *started != n/2+1 || k.Live() != n {
		t.Fatalf("bounded run: err=%v, %d Procs started, %d live", err, *started, k.Live())
	}
	// Upper bound only: goroutines of earlier tests may still be exiting.
	if grew := runtime.NumGoroutine() - before; grew > n/2+1+slack {
		t.Fatalf("%d Procs started, %d goroutines more than before", *started, grew)
	}
	k.Shutdown()
	if *started != n/2+1 || k.Live() != 0 || len(k.procs) != 0 {
		t.Fatalf("after Shutdown: %d Procs started, %d live, %d registered", *started, k.Live(), len(k.procs))
	}

	k, started = build()
	k.Stop()
	if err := k.Run(); !errors.Is(err, ErrStopped) || *started != 0 || k.Live() != 0 || len(k.procs) != 0 {
		t.Fatalf("stopped before it ran: err=%v, %d Procs started, %d live, %d registered", err, *started, k.Live(), len(k.procs))
	}
}
