package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Every dormant rotation in this package's tests, internal and external, asks
// the Idler too (shadow): the rotation re-arms a tick on a verdict it claims
// still stands, and the Idler must agree that the Proc is idle.
func init() { shadow = askIdler }

var dormancy struct {
	checked, disagreed atomic.Uint64
	mu                 sync.Mutex
	first              string
}

func askIdler(k *Kernel, s *tick) {
	p := s.proc
	p.wakeGen, p.pollTick = s.gen, s.parity // as leaving dormancy would
	dormancy.checked.Add(1)
	if p.poll.Idle() == Busy && dormancy.disagreed.Add(1) == 1 {
		dormancy.mu.Lock()
		dormancy.first = fmt.Sprintf("proc %q dormant at %v, but its Idler says busy", p.Name(), k.now)
		dormancy.mu.Unlock()
	}
}

// DormantChecks reports how many dormant rotations have asked the Idler so
// far, how many found it busy, and the first that did.
func DormantChecks() (checked, disagreed uint64, first string) {
	dormancy.mu.Lock()
	defer dormancy.mu.Unlock()
	return dormancy.checked.Load(), dormancy.disagreed.Load(), dormancy.first
}

// spawnMachine starts m on a Proc of its own named name: StartMachine for a
// test that lays out no Procs.
func (k *Kernel) spawnMachine(name string, m Machine) *Proc {
	p := newProc(name)
	k.StartMachine(p, p.name, m)
	return p
}
