package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The dispatcher's shortcuts are each defined as the code they stand for.
// PollCycle(d0, d1, c) is
//
//	for { Delay(d0); if !c.Idle() { return 0 }; Delay(d1); if !c.Idle() { return 1 } }
//
// with PollCycle(d, d, c) its one-period case; the dispatcher takes the idle
// ticks and queues them in one lane per period beside the event queue. A Machine
// stepped by the dispatcher is its Steps run on a goroutine daemon that parks
// after each (onGoroutine). A goroutine Proc gets its goroutine at its first wake.
//
// One generator draws a program from a seed — pollers on 1 to 64 periods fed
// on, behind and off their grid and kicked early, tickers, one-shot Procs, scripted
// Machines over Chans and Resources with the daemons they contend with, a
// driver script, sometimes a panic — and runs it in two spellings: fused
// (PollCycle, StartMachine) and written out (the Delay loops, the
// goroutine daemon), which runs only the event queue and the goroutine park the
// shortcuts are defined against. The two runs must be one simulation: every
// resumption and condition evaluation at the same (t, seq); the same
// Events(), Now(), Live() and next event time after every driver call; the
// same first line of every error. The tests at the bottom are the matrix's
// rows; each asserts the coverage it exists for, summed over its seeds.
//
// A row with tags has every Proc act for a node (ActsFor): each poller and
// its producers for one of their own, tickers and the kicker for others,
// Machines and daemons for the fabric. Its pollers then go dormant, and the
// fused spelling is run twice more. Once as is: this package's tests have
// every dormant rotation ask the Idler too (export_test.go), so the log is
// the written-out one entry for entry. Once blind, as programs run, with no
// Idle call at a dormant tick: the log must be the written-out one less the
// evaluations that found their poller idle.

const (
	gridD = 200 * Nanosecond // the poll period most programs share
	span  = 40 * Microsecond // how long a program's traffic lasts
)

// family is a way of drawing a program's pollers.
type family int

const (
	onGrid    family = iota // one to three pollers on gridD, each fed on, behind and off its grid
	three                   // gridD shared by three pollers, two of them also pausing 1 µs and 3 µs
	sixtyFour               // 48 pollers on 64 periods, 16 of them shared by two
	crowd                   // 20 pollers on gridD: more ticks than a fresh lane holds
)

// Driver scripts, and the panics a row draws.
const (
	drain  = iota // Run
	pauses        // RunUntil on and off tick instants, then Run
	halt          // the same, then stop from a global Proc or Shutdown

	condPanic = 1 // a poller's condition panics
	stepPanic = 2 // in odd seeds, a Machine's Step panics
)

// row is one row of the matrix.
type row struct {
	seeds    int
	families []family // cycled through by seed
	every    int      // percent of onGrid and crowd pollers polling one period; the rest two
	script   int
	panics   int
	tags     bool // every Proc acts for a node, and pollers go dormant
}

// Coverage counters. Up to nShared they count what the program exercised and
// are the same in both spellings; the rest count what the lanes did, fused.
const (
	cEvals   = iota
	cExit                  // + tick kind: waits ended by that kind of tick
	cAhead   = cExit + 2   // + kind: the condition flipped at a tick's instant by a send queued ahead of the tick
	cBehind  = cAhead + 2  // + kind: ... by a send queued behind it
	cMid     = cBehind + 2 // + kind: pollers mid-wait, that tick pending, when the run was stopped or shut down
	cPanic   = cMid + 2    // + kind: condition panics; + 2: Step panics
	cStale   = cPanic + 3  // kicks that found their poller mid-wait: its pending tick went stale
	cOutcome = cStale + 1  // + 2*op kind + immediate: Start* results
	nShared  = cOutcome + 2*(opAcquire+1)
	lFirst   = nShared      // driver calls that paused with a lane tick the earliest pending event
	lWrapped = lFirst + 1   // ticks pushed onto a full lane whose ring had wrapped
	lOpened  = lWrapped + 1 // + 0: programs that opened 3 lanes; + 1: 64 lanes
	dRotated = lOpened + 2  // dormant ticks re-armed without an Idle call (Census().Dormant)
	dKicked  = dRotated + 1 // kicks that found their poller dormant
	dPaused  = dKicked + 1  // driver calls that paused with a dormant tick queued
	nCov     = dPaused + 1
)

// Spellings.
const (
	writtenOut = iota
	fused      // dormant rotations ask the Idler (export_test.go)
	blind      // fused, with no Idle call at a dormant tick
)

// run is a program running in one spelling.
type run struct {
	k        *Kernel
	fused    bool
	log      []entry
	states   []string // after every driver call
	panicked string   // the Proc whose code panicked
	idles    int      // entries that are evaluations finding their poller idle
	cov      [nCov]int
	pollers  []*poller
	chans    []*Chan[int]
	ress     []*Resource
}

// entry is a resumption or a condition evaluation, at (t, seq). what tells a
// Proc's entries apart: a condition's inbox depth, -1-kind for a wait's end,
// 100+pc for a Machine's Step, a count or a target elsewhere. idle marks an
// evaluation that found its poller idle.
type entry struct {
	t    Time
	seq  uint64
	who  string
	what int
	idle bool
}

func (r *run) note(who string, what int) {
	r.log = append(r.log, entry{t: r.k.now, seq: r.k.seq, who: who, what: what})
}

func (r *run) state(what string, err error) {
	t, from := r.k.next()
	r.states = append(r.states, fmt.Sprintf("%s after %d busy entries: err=%s now=%v events=%d live=%d next=%v,%v",
		what, len(r.log)-r.idles, firstLine(err), r.k.Now(), r.k.Events(), r.k.Live(), t, from != noEvent))
	if r.fused && from >= 0 {
		r.cov[lFirst]++
	}
	for _, c := range r.pollers {
		if r.fused && c.p.dormant {
			r.cov[dPaused]++
			break
		}
	}
}

// grows counts a tick about to be pushed onto d's lane if it is full with its
// ring wrapped.
func (r *run) grows(d Time) {
	for i := range r.k.lanes {
		if l := &r.k.lanes[i]; l.d == d && l.n == len(l.ring) && l.head != 0 {
			r.cov[lWrapped]++
		}
	}
}

func firstLine(err error) string {
	if err == nil {
		return "<nil>"
	}
	s, _, _ := strings.Cut(err.Error(), "\n")
	return s
}

// poller waits for its inbox in PollCycle(d[0], d[1]) — PollCycle(d[0], d[0])
// when every — and takes what is there, then pauses. Kicks wake it early through a
// Signal (even i) or a rendezvous Chan (odd i).
type poller struct {
	r                    *run
	i                    int
	name                 string
	p                    *Proc
	d                    [2]Time
	every, waiting       bool
	in, kick             *Chan[int]
	sig                  Signal
	slot, evals, panicAt int
	pending              int // written out: which period's Delay the wait is in
	lastSend             Time
	last                 struct {
		at   Time
		kind int
		idle bool
	}
}

// kind is the period whose tick is pending (inside Idle: being evaluated).
func (c *poller) kind() int {
	switch {
	case c.every:
		return 0
	case c.r.fused && c.p.dormant:
		return int(c.r.k.dormantTick(c.p).parity) // the Proc's own pollTick is stale
	case c.r.fused:
		return int(c.p.pollTick)
	}
	return c.pending
}

// Idle is the poller's condition: its inbox. The verdict stands until its
// node acts (Quiet), until a time, or for one tick, by poller.
func (c *poller) Idle() Time {
	r, kind := c.r, c.kind()
	if c.evals++; c.evals == c.panicAt {
		r.cov[cPanic+kind]++
		r.panicked = c.name
		panic("boom")
	}
	idle := !c.in.Ready()
	r.cov[cEvals]++
	if !idle && c.lastSend == r.k.now {
		r.cov[cAhead+kind]++
	}
	c.last.at, c.last.kind, c.last.idle = r.k.now, kind, idle
	if idle && r.fused {
		r.grows(c.d[kind^1]) // the re-arm, with the other period
	}
	r.log = append(r.log, entry{r.k.now, r.k.seq, c.name, c.in.Len() + c.in.senders(), idle})
	if idle {
		r.idles++
	}
	switch {
	case !idle:
		return Busy
	case c.i%3 == 0:
		return Quiet
	case c.i%3 == 1:
		return r.k.now + 5*gridD/2
	}
	return OneTick
}

func (c *poller) Describe() (string, int, []int) { return "poll", -1, nil }

// wait is the fused wait or the loop it stands for; it reports the kind of
// the tick that ended it.
func (c *poller) wait(p *Proc) (kind int) {
	c.waiting = true
	switch {
	case c.r.fused && c.every:
		c.r.grows(c.d[0])
		p.PollCycle(c.d[0], c.d[0], c)
	case c.r.fused:
		c.r.grows(c.d[0])
		kind = p.PollCycle(c.d[0], c.d[1], c)
	default:
		for c.pending = 0; ; c.pending ^= 1 {
			p.Delay(c.d[c.pending])
			if c.Idle() == Busy {
				break
			}
		}
		kind = c.kind()
	}
	c.waiting = false
	return kind
}

// newRun draws a program from seed — nothing in the simulation reads the
// generator, so both spellings get the same one — and runs it.
func newRun(seed int64, rw row, spelling int) *run {
	if spelling == blind {
		defer func(ask func(*Kernel, *tick)) { shadow = ask }(shadow)
		shadow = nil
	}
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	fused := spelling != writtenOut
	r := &run{k: k, fused: fused}
	// actsFor tags p in a row with tags.
	actsFor := func(p *Proc, node int) {
		if rw.tags {
			p.ActsFor(node)
		}
	}
	halfGrid := func(n int) Time { return Time(1+rng.Intn(n)) * gridD / 2 }

	fam := rw.families[int(seed)%len(rw.families)]
	// A producer lands on the poll grid (one long Delay, queued long before
	// the tick for that instant, so it runs first), a half step behind it
	// (walking in half periods, queued after the tick) or off it.
	styles := [3][2]Time{{gridD, span}, {gridD, gridD / 2}, {1, span}}
	add := func(d0, d1 Time, every bool) {
		if every {
			d1 = d0
		}
		c := &poller{r: r, i: len(r.pollers), d: [2]Time{d0, d1}, every: every,
			in: NewChan[int](k, 3*rng.Intn(2)), kick: NewChan[int](k, 0)}
		c.name = fmt.Sprintf("poller%d", c.i)
		r.pollers = append(r.pollers, c)
		start, work := halfGrid(20)-gridD/2, make([]Time, 3)
		for i := range work {
			work[i] = []Time{0, gridD / 2, gridD, 37}[rng.Intn(4)] // 37 walks off the grid
		}
		picks, sends := []int{rng.Intn(3)}, 6
		if fam == onGrid {
			picks, sends = []int{0, 1, 2}, 12
		}
		for j, st := range picks {
			unit, step, gaps := styles[st][0], styles[st][1], make([]Time, sends)
			for n := range gaps {
				gaps[n] = Time(1+rng.Intn(int(30*gridD/unit))) * unit
			}
			name := fmt.Sprintf("producer%d.%d", c.i, j)
			actsFor(k.Spawn(name, func(p *Proc) {
				for n, g := range gaps {
					for ; g > 0; g -= min(g, step) {
						p.Delay(min(g, step))
					}
					r.note(name, n)
					if c.last.at == p.Now() && c.last.idle {
						r.cov[cBehind+c.last.kind]++
					}
					c.lastSend = p.Now()
					c.in.Send(p, n)
				}
			}), c.i)
		}
		c.p = k.SpawnAt(start, c.name, func(p *Proc) {
			for got, w := 0, 0; got < len(picks)*sends; w++ {
				if c.i%2 == 0 && c.sig.q.Len() == 0 {
					*c.sig.q.Push() = p
				} else if c.i%2 == 1 && c.kick.recvq.Len() == 0 {
					c.kick.StartRecv(p, &c.slot)
				}
				kind := c.wait(p)
				r.cov[cExit+kind]++
				r.note(c.name, -1-kind)
				for ; c.in.Ready(); got++ {
					c.in.TryRecv()
				}
				p.Delay(work[w%len(work)])
			}
		})
		actsFor(c.p, c.i)
	}
	switch fam {
	case onGrid:
		d1 := []Time{3 * gridD, gridD / 2, 130}[rng.Intn(3)]
		for n := 1 + rng.Intn(3); n > 0; n-- {
			add(gridD, d1, rng.Intn(100) < rw.every)
		}
	case three:
		add(gridD, 0, true)
		add(gridD, Microsecond, false)
		add(gridD, 3*Microsecond, false)
	case sixtyFour:
		for i := Time(0); i < 32; i++ {
			add(100+10*i, 1000+70*i, false)
		}
		for i := Time(0); i < 16; i++ {
			add(100+20*i, 0, true)
		}
	case crowd:
		for i := 0; i < 20; i++ {
			add(gridD, gridD, rng.Intn(100) < rw.every)
		}
	}

	// loop spawns a Proc that notes each turn of body until span.
	loop := func(spawn func(string, func(*Proc)) *Proc, name string, body func(p *Proc)) *Proc {
		return spawn(name, func(p *Proc) {
			for p.Now() < span {
				r.note(name, 0)
				body(p)
			}
		})
	}
	for i, d := range []Time{gridD, gridD / 2, 3 * gridD, 70, 130, Time(50 + rng.Intn(400))} {
		actsFor(loop(k.Spawn, fmt.Sprintf("ticker%d", i), func(p *Proc) { p.Delay(d) }), 100+i)
	}
	for i := 0; i < 16; i++ {
		k.SpawnAt(halfGrid(int(2*span/gridD)), "at", func(*Proc) { r.note("at", i) })
	}
	kicks := make([][2]int, 4*len(r.pollers)) // after the previous one, poller
	for i := range kicks {
		kicks[i] = [2]int{1 + rng.Intn(int(span)/len(kicks)), rng.Intn(len(r.pollers))}
		if i%2 == 0 {
			kicks[i][0] = int(halfGrid(int(span/gridD) / len(kicks)))
		}
	}
	actsFor(k.Spawn("kicker", func(p *Proc) {
		for _, kk := range kicks {
			p.Delay(Time(kk[0]))
			c := r.pollers[kk[1]]
			if c.waiting {
				r.cov[cStale]++
			}
			if c.waiting && fused && c.p.dormant {
				r.cov[dKicked]++
			}
			r.note("kicker", c.i)
			if c.i%2 == 0 {
				c.sig.Signal()
			} else {
				c.kick.TrySend(1)
			}
		}
	}), 99)

	r.chans = []*Chan[int]{NewChan[int](k, 0), NewChan[int](k, 1), NewChan[int](k, 3)}
	r.ress = []*Resource{NewResource(k, "r0", 1), NewResource(k, "r1", 2)}
	var machines [][]scriptOp
	for i := 0; i < 6; i++ {
		var ops []scriptOp
		for j := 3 + rng.Intn(6); j > 0; j-- {
			op := scriptOp{kind: rng.Intn(opRelease), d: Time(rng.Intn(4)) * 50 * Time(rng.Intn(3)), ch: rng.Intn(3), res: rng.Intn(2)}
			if op.kind == opAcquire { // hold the Resource across a Send: a link holding its wire under back-pressure
				ops = append(ops, op, scriptOp{kind: opSend, ch: op.ch}, scriptOp{kind: opRelease, res: op.res})
			} else {
				ops = append(ops, op)
			}
		}
		// Every script passes time somewhere, or it could spin at one instant.
		machines = append(machines, append(ops, scriptOp{kind: opDelay, d: Time(20 + rng.Intn(100))}))
	}
	machines = append(machines, []scriptOp{{kind: opDelay, d: gridD}}, []scriptOp{{kind: opDelay, d: Microsecond}})
	for i, ops := range machines {
		m := &scripted{r: r, name: fmt.Sprintf("m%d", i), ops: ops}
		if rw.panics == stepPanic && seed%2 == 1 && i == int(seed/2)%6 {
			m.panicAt = 1 + rng.Intn(100)
		}
		if fused {
			actsFor(k.spawnMachine(m.name, m), Fabric)
		} else {
			actsFor(onGoroutine(k, m.name, m), Fabric)
		}
	}
	for i, ch := range r.chans {
		feed, drain := Time(30+rng.Intn(200)), Time(30+rng.Intn(200))
		actsFor(loop(k.SpawnDaemon, fmt.Sprintf("feed%d", i), func(p *Proc) { p.Delay(feed); ch.Send(p, i) }), Fabric)
		actsFor(loop(k.SpawnDaemon, fmt.Sprintf("drain%d", i), func(p *Proc) { p.Delay(drain); ch.Recv(p) }), Fabric)
	}
	for i, res := range r.ress {
		hold := Time(rng.Intn(3)) * 40
		actsFor(loop(k.SpawnDaemon, fmt.Sprintf("hold%d", i), func(p *Proc) { res.Use(p, hold); p.Delay(70) }), Fabric)
	}
	if rw.panics == condPanic {
		r.pollers[rng.Intn(len(r.pollers))].panicAt = 1 + rng.Intn(60)
	}

	// The driver draws its instants as it goes.
	at := Time(0)
	for rw.script != drain && at < 45*Microsecond && (rw.script == pauses || at == 0 || rng.Intn(4) > 0) {
		if at += Time(1 + rng.Intn(int(2*Microsecond))); rng.Intn(2) == 0 {
			at = max(gridD, at/gridD*gridD) // on a tick instant (RunUntil(0) would be Run)
		}
		r.state(fmt.Sprintf("until %v", at), k.RunUntil(at))
	}
	switch at += halfGrid(40) + Time(rng.Intn(2))*37; {
	case rw.script != halt:
		r.state("run", k.Run())
	case rng.Intn(2) == 0:
		k.SpawnAt(at, "stopper", func(*Proc) { r.midWait(); k.stop() })
		r.state(fmt.Sprintf("stopped at %v", at), k.Run())
	default:
		r.state(fmt.Sprintf("until %v", at), k.RunUntil(at))
		r.midWait()
		k.Shutdown()
		r.state("shut down", nil)
	}
	if n := len(k.lanes); fused && (n == 3 || n == 64) {
		r.cov[lOpened+n/64]++
	}
	if fused {
		r.cov[dRotated] = int(k.Census().Dormant)
	}
	return r
}

func (r *run) midWait() {
	for _, c := range r.pollers {
		if c.waiting && !c.p.done {
			r.cov[cMid+c.kind()]++
		}
	}
}

// onGoroutine drives m the way the blocking primitives drive their Start*
// halves: on a goroutine daemon, a park after each Step.
func onGoroutine(k *Kernel, name string, m Machine) *Proc {
	return k.SpawnDaemon(name, func(p *Proc) {
		for {
			m.Step(p)
			p.Park()
		}
	})
}

// Script ops: each is one blocking call of the loop a script stands for.
// Only the first three count their Start* outcomes.
const (
	opRecv    = iota // ch.Recv
	opSend           // ch.Send
	opAcquire        // res.Acquire(1); a script holds it across a Send, to the next opRelease
	opDelay          // Delay(d), d often zero
	opUse            // res.Use(d): Acquire, Delay(d), Release, as one Hold
	opRelease
)

type scriptOp struct {
	kind    int
	d       Time
	ch, res int // indexes into the run's Chans and Resources
}

// scripted is a Machine that loops over a fixed script until span, then
// arms no more wakes.
type scripted struct {
	r                          *run
	name                       string
	ops                        []scriptOp
	pc, held                   int
	use                        Hold // the opUse under way, if using
	using                      bool
	slot, sent, steps, panicAt int
}

func (m *scripted) Step(p *Proc) {
	r := m.r
	r.note(m.name, 100+m.pc)
	if m.steps++; m.steps == m.panicAt {
		r.cov[cPanic+2]++
		r.panicked = m.name
		panic("boom")
	}
	for m.held > 0 || m.using || p.Now() < span {
		op := m.ops[m.pc]
		if op.kind == opUse {
			if !m.using {
				m.use, m.using = r.ress[op.res].StartUse(op.d), true
			}
			if !m.use.Step(p) {
				return
			}
			m.using = false
		}
		m.pc = (m.pc + 1) % len(m.ops)
		now := true
		switch op.kind {
		case opDelay:
			p.StartDelay(op.d)
			return
		case opRecv:
			now = r.chans[op.ch].StartRecv(p, &m.slot)
		case opSend:
			m.sent++
			now = r.chans[op.ch].StartSend(p, m.sent)
		case opAcquire:
			m.held++
			now = r.ress[op.res].StartAcquire(p, 1)
		case opRelease:
			m.held--
			r.ress[op.res].Release(1)
		}
		if op.kind <= opAcquire {
			i := cOutcome + 2*op.kind
			if now {
				i++
			}
			r.cov[i]++
		}
		if !now {
			return
		}
	}
}

// matrix runs a row: each seed's program in every spelling, which must be
// one simulation; then no floor — a coverage counter — may have stayed 0.
func matrix(t *testing.T, rw row, floors ...int) {
	t.Helper()
	var sum [nCov]int
	for seed := int64(1); seed <= int64(rw.seeds); seed++ {
		ref, got := newRun(seed, rw, writtenOut), newRun(seed, rw, fused)
		same(t, seed, "fused", ref, got, ref.log, got.log, nShared)
		if rw.tags {
			// Blind, no evaluation that found its poller idle is logged or
			// counted, and the producers' cBehind reads the last evaluation.
			b := newRun(seed, rw, blind)
			idle := func(e entry) bool { return e.idle }
			for _, c := range []*[nCov]int{&ref.cov, &b.cov} {
				c[cEvals], c[cBehind], c[cBehind+1] = 0, 0, 0
			}
			same(t, seed, "blind", ref, b, slices.DeleteFunc(slices.Clone(ref.log), idle), slices.DeleteFunc(b.log, idle), nShared)
			if got.cov[dRotated] != b.cov[dRotated] {
				t.Fatalf("seed %d: %d dormant rotations asking the Idler, %d blind", seed, got.cov[dRotated], b.cov[dRotated])
			}
		}
		// A panic fails the run in its Proc's name; any other run but a halted
		// one ends clean.
		in, want := got.states[len(got.states)-1], "err=<nil>"
		switch {
		case got.panicked != "":
			in, want = strings.Join(got.states, "\n"), fmt.Sprintf(`proc %q panicked: boom`, got.panicked)
		case rw.script == halt:
			want = ""
		}
		if !strings.Contains(in, want) {
			t.Fatalf("seed %d: want %q in\n%s", seed, want, in)
		}
		for i, n := range got.cov {
			sum[i] += n
		}
	}
	t.Logf("coverage %v", sum)
	for _, i := range floors {
		if sum[i] == 0 {
			t.Fatalf("coverage counter %d is 0 over %d seeds: the generator no longer produces its case\n%v", i, rw.seeds, sum)
		}
	}
}

// same fails the test unless run got, in the spelling named, is ref's
// simulation: the logs given entry for entry, the driver calls, the first
// shared coverage counters, and a census that accounts for every event.
func same(t *testing.T, seed int64, spelling string, ref, got *run, want, have []entry, shared int) {
	t.Helper()
	for i := range min(len(want), len(have)) {
		if want[i] != have[i] {
			t.Fatalf("seed %d: entry %d differs\n  written out: %v\n  %s: %v", seed, i, want[i], spelling, have[i])
		}
	}
	if len(want) != len(have) {
		t.Fatalf("seed %d: %d entries written out, %d %s", seed, len(want), len(have), spelling)
	}
	if a, b := strings.Join(ref.states, "\n"), strings.Join(got.states, "\n"); a != b {
		t.Fatalf("seed %d: the driver calls differ\n  written out:\n%s\n  %s:\n%s", seed, a, spelling, b)
	}
	if !slices.Equal(ref.cov[:shared], got.cov[:shared]) {
		t.Fatalf("seed %d: coverage differs\n  written out: %v\n  %s: %v", seed, ref.cov, spelling, got.cov)
	}
	for _, r := range []*run{ref, got} {
		c := r.k.Census()
		if n := c.Resumes + c.Steps + c.Idle + c.Dormant + c.Stale + c.Queued; n != r.k.Events() {
			t.Fatalf("seed %d: census %+v sums to %d, Events() is %d", seed, c, n, r.k.Events())
		}
	}
}

// The matrix's rows.

var grid, lanes = []family{onGrid}, []family{three, sixtyFour, crowd}

func TestPollEveryMatchesDelayLoop(t *testing.T) {
	matrix(t, row{seeds: 12, families: grid, every: 100}, cAhead, cBehind)
}

func TestPollCycleMatchesTwoDelayLoop(t *testing.T) {
	matrix(t, row{seeds: 16, families: grid}, cExit, cExit+1, cAhead, cAhead+1, cBehind, cBehind+1)
}

func TestPollLanesMatchDelayLoops(t *testing.T) {
	matrix(t, row{seeds: 9, families: lanes, every: 50}, cStale, lWrapped, lOpened, lOpened+1)
}

// Every op that can queue, queued and immediate; a Step panic.
func TestMachineMatchesGoroutineDriver(t *testing.T) {
	matrix(t, row{seeds: 12, families: []family{onGrid, three}, every: 50, script: halt, panics: stepPanic},
		cOutcome, cOutcome+1, cOutcome+2, cOutcome+3, cOutcome+4, cOutcome+5, cPanic+2)
}

func TestPollEveryPauseAndResume(t *testing.T) {
	matrix(t, row{seeds: 6, families: grid, every: 100, script: pauses}, lFirst)
}

func TestPollCyclePauseAndResume(t *testing.T) {
	matrix(t, row{seeds: 6, families: grid, script: pauses}, lFirst)
}

func TestPollLanesPauseAndResume(t *testing.T) {
	matrix(t, row{seeds: 6, families: lanes, every: 50, script: pauses}, lFirst)
}

func TestPollEveryStopAndShutdownMidStretch(t *testing.T) {
	matrix(t, row{seeds: 6, families: grid, every: 100, script: halt}, cMid)
}

func TestPollCycleStopAndShutdownMidStretch(t *testing.T) {
	matrix(t, row{seeds: 8, families: grid, script: halt}, cMid, cMid+1)
}

func TestPollEveryConditionPanicNamesProc(t *testing.T) {
	matrix(t, row{seeds: 4, families: grid, every: 100, panics: condPanic}, cPanic)
}

func TestPollCycleConditionPanicNamesProc(t *testing.T) {
	matrix(t, row{seeds: 6, families: grid, panics: condPanic}, cPanic, cPanic+1)
}

// Dormancy: pollers whose verdict stands until their node acts, for a time
// or for one tick, their producers on their node, everything else elsewhere.
func TestDormantPollersMatchDelayLoops(t *testing.T) {
	matrix(t, row{seeds: 12, families: []family{onGrid, three, crowd}, every: 50, tags: true}, dRotated, dKicked, cStale)
}

func TestDormantPollersPauseAndResume(t *testing.T) {
	matrix(t, row{seeds: 8, families: []family{onGrid, sixtyFour}, every: 50, script: pauses, tags: true}, dRotated, dPaused)
}

func TestDormantPollersStopAndShutdownMidStretch(t *testing.T) {
	matrix(t, row{seeds: 8, families: grid, every: 50, script: halt, tags: true}, dPaused, cMid, cMid+1)
}
