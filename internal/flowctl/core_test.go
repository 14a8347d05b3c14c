package flowctl_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/fm1"
	"repro/internal/fm2"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

// engines builds a two-node platform on each FM generation's machine and
// returns node 0's endpoint core and a send of buf from node 0 to node 1.
var engines = []struct {
	name  string
	build func(k *sim.Kernel) (*flowctl.EndpointCore, func(p *sim.Proc, buf []byte) error)
}{
	{"fm1", func(k *sim.Kernel) (*flowctl.EndpointCore, func(p *sim.Proc, buf []byte) error) {
		cfg := cluster.DefaultConfig()
		cfg.Profile = hostmodel.Sparc()
		eps := fm1.Attach(cluster.New(k, cfg), fm1.Config{})
		return eps[0].Core(), func(p *sim.Proc, buf []byte) error { return eps[0].Send(p, 1, 1, buf) }
	}},
	{"fm2", func(k *sim.Kernel) (*flowctl.EndpointCore, func(p *sim.Proc, buf []byte) error) {
		eps := fm2.Attach(cluster.New(k, cluster.DefaultConfig()), fm2.Config{})
		return eps[0].Core(), func(p *sim.Proc, buf []byte) error { return eps[0].Send(p, 1, 1, buf) }
	}},
}

// TestPacketsIsWhatASendSpends pins EndpointCore.Packets' promise on both
// engines: an n-byte message sent while exactly Packets(n) credits toward
// its destination are in hand never parks on the credit plane, and spends
// them all. Node 1 never extracts, so no credit comes back: with one credit
// fewer the same send parks, and the hang report names the credit wait.
func TestPacketsIsWhatASendSpends(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			k := sim.NewKernel()
			core, _ := e.build(k)
			mtu, window := core.MTU(), core.FlowControl().Window()
			for _, n := range []int{0, 1, mtu - 1, mtu, mtu + 1, 2*mtu + 1, window * mtu} {
				for _, short := range []int{0, 1} {
					t.Run(fmt.Sprintf("%dB/short%d", n, short), func(t *testing.T) {
						sendWithCredits(t, e.build, n, short)
					})
				}
			}
		})
	}
}

// sendWithCredits spends node 0's credits toward node 1 down to
// Packets(n)-short, sends n bytes, and checks that the send returns with no
// credit left exactly when short is 0.
func sendWithCredits(t *testing.T, build func(*sim.Kernel) (*flowctl.EndpointCore, func(*sim.Proc, []byte) error), n, short int) {
	k := sim.NewKernel()
	core, send := build(k)
	fc := core.FlowControl()
	hand := core.Packets(n) - short
	for fc.Available(1) > hand {
		fc.Consume(1)
	}
	done := false
	k.Spawn("sender", func(p *sim.Proc) {
		if err := send(p, make([]byte, n)); err != nil {
			t.Error(err)
		}
		done = true
	})
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	hang := k.HangReport().String()
	switch {
	case short == 0 && !done:
		t.Fatalf("%d B with Packets = %d credits in hand parked:\n%s", n, hand, hang)
	case short == 0 && fc.Available(1) != 0:
		t.Fatalf("%d B spent %d of the %d credits Packets promised", n, hand-fc.Available(1), hand)
	case short > 0 && done:
		t.Fatalf("%d B was sent on %d credits, one fewer than Packets = %d", n, hand, hand+short)
	case short > 0 && !strings.Contains(hang, "credit"):
		t.Fatalf("%d B on one credit too few: the hang report names no credit wait:\n%s", n, hang)
	}
}
