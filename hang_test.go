package fmnet_test

import (
	"slices"
	"strings"
	"testing"

	fmnet "repro"
	"repro/internal/sim"
)

// never is a poll condition that never ends its wait, at either layer.
type never struct{}

func (never) Idle() sim.Time                 { return sim.Quiet }
func (never) Done() bool                     { return false }
func (never) Describe() (string, int, []int) { return "poll forever", -1, nil }

// TestHangReportNamesEveryWait parks one Proc at each kind of park site and
// reads the one hang report: every line names its wait. On FM 2.x, rank 0
// sends until its credit window toward rank 1 is spent; rank 1 extracts one
// frame of the first message, which leaves that message's handler parked for
// the rest of its payload, and then waits on a Signal; rank 2 waits for a
// message that never comes.
func TestHangReportNamesEveryWait(t *testing.T) {
	s, err := fmnet.New(fmnet.Nodes(3), fmnet.FM2(), fmnet.WithService("t"))
	if err != nil {
		t.Fatal(err)
	}
	k := s.Kernel()
	var sig sim.Signal
	s.Space(1, "t").Register(1, func(p *fmnet.Proc, st fmnet.RecvStream) { st.ReceiveDiscard(p, st.Length()) })
	s.SpawnRanks("rank", func(rank int, p *fmnet.Proc) {
		sp := s.Space(rank, "t")
		if rank == 2 {
			sp.Wait(p, 0, never{})
			return
		}
		if rank == 1 {
			p.Delay(200 * fmnet.Microsecond)
			sp.Extract(p, 1)
			sig.Wait(p)
			return
		}
		for size := 3 * sp.MTU(); ; size = sp.MTU() {
			if err := fmnet.Send(p, sp, 1, 1, make([]byte, size)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	bus := sim.NewResource(k, "bus", 1)
	empty := sim.NewChan[int](k, 0)
	sites := []struct {
		name string
		park func(p *sim.Proc)
		want string
	}{
		{"delay", func(p *sim.Proc) { p.Delay(sim.Second) }, "delay: delay until 1.000s"},
		{"send", func(p *sim.Proc) { sim.NewChan[int](k, 0).Send(p, 1) }, "send: chan send (full)"},
		{"recv", func(p *sim.Proc) { empty.Recv(p) }, "recv: chan recv (empty)"},
		{"signal", func(p *sim.Proc) { sig.Wait(p) }, "signal: signal"},
		{"holder", func(p *sim.Proc) { bus.Use(p, sim.Second) }, "holder: delay until 1.000s"},
		{"resource", func(p *sim.Proc) { p.Delay(1); bus.Acquire(p, 1) }, `resource: resource "bus" (1 of 1 in use)`},
		{"poll", func(p *sim.Proc) { p.PollCycle(sim.Microsecond, sim.Microsecond, never{}) }, "poll: poll forever"},
		{"tick", func(p *sim.Proc) { p.PollCycle(sim.Second, sim.Second, nil) }, "tick: delay until 1.000s"},
	}
	for _, c := range sites {
		k.Spawn(c.name, c.park)
	}
	if err := k.RunUntil(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	want := []string{
		"fm2.n1.hw1@n1: payload (536 of 1608 B delivered) → n0",
		"rank.0@n0: credit (window of 32 spent, 0 frames unextracted here) → n1",
		"rank.1: signal",
		"rank.2@n2: poll",
	}
	for _, c := range sites {
		want = append(want, c.want)
	}
	slices.Sort(want)
	if got := k.HangReport().Lines; !slices.Equal(got, want) {
		t.Errorf("hang report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
