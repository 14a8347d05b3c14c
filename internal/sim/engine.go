// Parallel conservative PDES engine.
//
// An Engine runs several logical processes (LPs) — each an ordinary Kernel
// with its own event heap, virtual clock, and Procs — on real goroutines,
// synchronized by a LOWER-BOUND-TIME-STAMP WINDOW BARRIER (the YAWNS family
// of conservative algorithms). Of the two classic conservative schemes:
//
//   - Null messages (Chandy/Misra/Bryant) send per-link lookahead promises;
//     on this fabric every partition exchanges traffic with every other
//     (dense trunk graph), so null-message traffic is O(LPs²) per lookahead
//     interval and the promises carry no more information than the global
//     bound below.
//
//   - An LBTS window barrier computes, at a global barrier, the earliest
//     instant any LP could possibly be influenced by another — and lets
//     every LP run concurrently up to (but excluding) that instant.
//
// We use the window barrier. Each round the engine computes
//
//	W = min(next event time over all LPs) + min(portal lookahead)
//
// and runs every LP's kernel through RunBefore(W) in parallel. Any message
// an LP emits during the round is stamped at its send time plus at least the
// portal's lookahead, so its arrival is >= W — it cannot land inside the
// window being executed, only in a later one. Cross-LP messages are staged
// in Portals during the round and flushed into destination heaps at the
// barrier, on the engine goroutine, in a canonical (portal registration,
// send order) order — so the merge order, and therefore the virtual-time
// execution, is identical on every run regardless of goroutine scheduling.
//
// Determinism vs the sequential kernel: within one LP, scheduling is the
// sequential kernel's own (t, seq) total order, untouched. Across LPs, the
// window proof above means every event executes at the same virtual time it
// would have sequentially as long as cross-LP interactions carry real
// lookahead. The one model feature with ZERO lookahead is reverse
// back-pressure — a sender parked on a remote queue wakes at the instant the
// remote drains — so the netsim partition layer severs blocking at the cut
// and counts the (rare, congestion-only) cases where timing could diverge;
// see netsim's cut monitor for the per-run certificate.
//
// An Engine needs at least one portal: LPs that never exchange a message
// are independent simulations, and running those side by side is
// internal/par's job, not this engine's.
package sim

import (
	"fmt"
	"sync"
)

// LP is one logical process: a labeled Kernel plus its worker goroutine.
type LP struct {
	K *Kernel

	eng *Engine
	cmd chan Time // the bound of the next window
	err error
}

// Engine owns a set of LPs and drives their window-barrier rounds.
type Engine struct {
	lps     []*LP
	portals []portal
	la      Time // min lookahead over all portals
	wg      sync.WaitGroup
	started bool
	done    bool
}

// portal is the engine-facing face of a Portal[T] (flush at the barrier).
type portal interface {
	flushStaged()
	lookahead() Time
}

// NewEngine creates an empty engine. Add LPs, build the model on their
// kernels, then call Run.
func NewEngine() *Engine {
	return &Engine{}
}

// AddLP creates a logical process with its own kernel. All LPs must be added
// before Run.
func (e *Engine) AddLP(name string) *LP {
	if e.started {
		panic("sim: AddLP after Engine.Run")
	}
	k := NewKernel()
	k.label = name
	lp := &LP{K: k, eng: e, cmd: make(chan Time, 1)}
	e.lps = append(e.lps, lp)
	return lp
}

// Events reports the total events scheduled across all LPs.
func (e *Engine) Events() uint64 {
	var n uint64
	for _, lp := range e.lps {
		n += lp.K.Events()
	}
	return n
}

func (e *Engine) addPortal(p portal) {
	if e.started {
		panic("sim: portal registered after Engine.Run")
	}
	la := p.lookahead()
	if la < Nanosecond {
		panic("sim: portal lookahead must be at least 1ns")
	}
	if e.la == 0 || la < e.la {
		e.la = la
	}
	e.portals = append(e.portals, p)
}

// startWorkers spawns one persistent worker goroutine per LP. A worker
// executes exactly one kernel and sleeps between windows; the engine
// goroutine owns all cross-LP state (portals, heap inspection) while
// workers are parked, with the cmd send / WaitGroup pair providing the
// happens-before edges.
func (e *Engine) startWorkers() {
	e.started = true
	for _, lp := range e.lps {
		lp := lp
		go func() {
			for w := range lp.cmd {
				lp.err = lp.K.RunBefore(w)
				e.wg.Done()
			}
		}()
	}
}

// Run drives all LPs to completion: the parallel analogue of Kernel.Run.
// It returns nil on a clean drain, the first LP's failure (in LP ID order)
// after a panic or Stop, or ErrDeadlock with one HangReport over every LP's
// Procs, each line tagged with its LP and local virtual time. An engine
// with no portal panics: its LPs are independent replicas, which
// internal/par runs.
func (e *Engine) Run() error {
	if e.done {
		panic("sim: Engine reused after completion")
	}
	if len(e.portals) == 0 {
		panic("sim: Engine.Run with no portal: independent replicas are internal/par's job")
	}
	e.startWorkers()
	for {
		next, ok := e.nextEventTime()
		if !ok {
			break // every heap drained
		}
		if err := e.window(next + e.la); err != nil {
			e.Shutdown()
			return err
		}
		for _, p := range e.portals {
			p.flushStaged()
		}
	}
	return e.finish()
}

// window runs every LP with work below w through one concurrent round.
func (e *Engine) window(w Time) error {
	n := 0
	for _, lp := range e.lps {
		if t, ok := lp.K.NextEventTime(); ok && t < w {
			e.wg.Add(1)
			lp.cmd <- w
			n++
		}
	}
	if n > 0 {
		e.wg.Wait()
	}
	for _, lp := range e.lps {
		if lp.err != nil {
			return lp.err
		}
	}
	return nil
}

// finish classifies a fully-drained engine as Kernel.run does a drained
// kernel: deadlock, or clean. An LP's failure ended the run at its window.
func (e *Engine) finish() error {
	live := 0
	ks := make([]*Kernel, len(e.lps))
	for i, lp := range e.lps {
		live += lp.K.Live()
		ks[i] = lp.K
	}
	if live > 0 {
		err := fmt.Errorf("%w:\n%v", ErrDeadlock, reportHang(ks...))
		e.Shutdown()
		return err
	}
	e.done = true
	e.stopWorkers()
	return nil
}

// nextEventTime is the minimum pending event time across all LPs.
func (e *Engine) nextEventTime() (Time, bool) {
	var min Time
	found := false
	for _, lp := range e.lps {
		if t, ok := lp.K.NextEventTime(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

// Shutdown unwinds every LP's remaining Procs and retires the worker
// goroutines. The engine is unusable afterwards.
func (e *Engine) Shutdown() {
	for _, lp := range e.lps {
		lp.K.Shutdown()
	}
	e.done = true
	e.stopWorkers()
}

func (e *Engine) stopWorkers() {
	if !e.started {
		return
	}
	for _, lp := range e.lps {
		close(lp.cmd)
	}
	e.started = false
}
