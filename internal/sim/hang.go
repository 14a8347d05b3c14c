package sim

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Wait is what a parked Proc waits on, as its HangReport line names it (the
// package doc says who names which wait). Describe reports what the Proc
// waits for, the node it runs on and the nodes whose progress would end the
// wait: -1 and none for a wait of no node. It runs only while a report is
// built, so what it reads — a ring depth, a credit ledger — is what prints.
type Wait interface {
	Describe() (what string, node int, on []int)
}

// WaitOn names the wait of p's next park, over the primitive it parks on; the
// wake clears it. It is one store and, for a pointer w, allocates nothing.
func (p *Proc) WaitOn(w Wait) { p.wait = w }

// waitsOn names the wait a primitive queues p on, unless a caller named it
// first. A Machine's waits stay unnamed, and its slot unread: it never parks,
// so nothing would clear them, and a daemon waiting on a primitive is not
// reported.
func (p *Proc) waitsOn(w Wait) {
	if p.mach == nil && p.wait == nil {
		p.wait = w
	}
}

// HangReport is the one report of a stalled simulation: a line for each live
// Proc, and for each daemon whose wait points at a node (a handler parked
// mid-message), naming the wait and the nodes it points at, sorted. A cycle
// of the wait-for graph among nodes comes first; only live Procs draw its
// edges, since a daemon's wait holds up its own message, not its node.
type HangReport struct {
	Lines []string `json:"lines"`
}

func (h *HangReport) String() string { return strings.Join(h.Lines, "\n") }

// HangReport reports what every parked Proc of k waits on. A line is built
// in one reused buffer, so it costs a watchdog run only its string.
func (k *Kernel) HangReport() *HangReport {
	h := &HangReport{}
	edges := map[int][]int{}
	var b []byte
	for p := range k.procs {
		if p.done || p.daemon && p.wait == nil {
			continue
		}
		what, node, on := k.describe(p)
		if p.daemon && len(on) == 0 {
			continue
		}
		b = append(b[:0], p.Name()...)
		if node >= 0 {
			b = strconv.AppendInt(append(b, "@n"...), int64(node), 10)
			if !p.daemon {
				edges[node] = append(edges[node], on...)
			}
		}
		b = appendNodes(append(append(b, ": "...), what...), on, " → ", ", ")
		h.Lines = append(h.Lines, string(b))
	}
	slices.Sort(h.Lines)
	if c := cycle(edges); c != nil {
		h.Lines = slices.Insert(h.Lines, 0, string(appendNodes([]byte("cycle"), c, " ", " → ")))
	}
	return h
}

// describe names p's wait: the one its park site named, the Idler of its
// PollCycle, or its pending wake — in the event queue, or in a lane for a
// PollCycle with no Idler.
func (k *Kernel) describe(p *Proc) (string, int, []int) {
	switch {
	case p.wait != nil:
		return p.wait.Describe()
	case p.poll != nil:
		return p.poll.Describe()
	}
	for e := range k.eq.all {
		if e.proc == p && e.gen == p.wakeGen {
			return fmt.Sprintf("delay until %v", e.t), -1, nil
		}
	}
	for _, l := range k.lanes {
		for _, s := range l.ring { // a popped slot holds no Proc
			if s.proc == p && s.gen == p.wakeGen {
				return fmt.Sprintf("delay until %v", s.t), -1, nil
			}
		}
	}
	return "park (unnamed)", -1, nil
}

// cycle finds a cycle of the wait-for graph, the same one on every run: it
// prunes every node that reaches no cycle, then walks from the lowest node
// left along each node's lowest edge left until a node repeats.
func cycle(edges map[int][]int) []int {
	left := func(m int) bool { _, ok := edges[m]; return ok }
	for pruned := true; pruned; {
		pruned = false
		for n, to := range edges {
			if !slices.ContainsFunc(to, left) {
				delete(edges, n)
				pruned = true
			}
		}
	}
	if len(edges) == 0 {
		return nil
	}
	path := []int{slices.Min(slices.Collect(maps.Keys(edges)))}
	for {
		to := slices.DeleteFunc(edges[path[len(path)-1]], func(m int) bool { return !left(m) })
		next := slices.Min(to)
		if i := slices.Index(path, next); i >= 0 {
			return append(path[i:], next)
		}
		path = append(path, next)
	}
}

// appendNodes appends node ids as "n3", the first after first and the rest
// after sep.
func appendNodes(b []byte, ids []int, first, sep string) []byte {
	for _, n := range ids {
		b = strconv.AppendInt(append(append(b, first...), 'n'), int64(n), 10)
		first = sep
	}
	return b
}
