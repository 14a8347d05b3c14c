package mpifm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Comm.Wait blocks in HandlerSpace.Wait, whose empty polls are ticked off by
// the kernel's dispatcher. These tests run the same exchange once through it
// and once with every receive waiting the way Wait used to be written — the
// rank itself back in Extract on every empty poll — and require the two
// simulations to be the same simulation: end time, kernel event count, every
// layer's counters and the credit ledger.

// loopRecv is Comm.Recv with the wait spelled out as the rank's own loop.
func loopRecv(c *Comm, p *sim.Proc, buf []byte, src, tag int) (Status, error) {
	req := c.getReq()
	c.post(p, req, buf, src, tag)
	for !req.done {
		c.t.Extract(p, c.progressLimit())
	}
	st := req.st
	c.putReq(req)
	return st, nil
}

type recvFn func(c *Comm, p *sim.Proc, buf []byte, src, tag int) (Status, error)

// exchange is a neighbour shift of multi-packet messages (credit returns and
// partial batches in both directions), a gather to rank 0 through wildcard
// receives and a release from it (the long idle waits of a linear barrier),
// with uneven compute between rounds so ranks block at different instants.
func exchange(t *testing.T, c *Comm, p *sim.Proc, recv recvFn) {
	n, r := c.Size(), c.Rank()
	fail := func(err error) {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	// Half a packet to three and a half: within the smallest credit window,
	// so the shift cannot deadlock FM 1.x, whose sends never extract.
	mtu := c.t.Core().MTU()
	out := make([]byte, 4*mtu)
	in := make([]byte, 4*mtu)
	one := []byte{1}
	for round := 0; round < 4; round++ {
		p.Delay(sim.Time(r%5) * 3 * sim.Microsecond)
		for i := range out {
			out[i] = byte(r + round + i)
		}
		size := mtu * (2*round + 1) / 2
		fail(c.Send(p, out[:size], (r+1)%n, round))
		st, err := recv(c, p, in, (r+n-1)%n, round)
		fail(err)
		if st.Len != size || in[size-1] != byte((r+n-1)%n+round+size-1) {
			t.Errorf("rank %d round %d: got %d of %d bytes (last %d)", r, round, st.Len, size, in[size-1])
		}
		if r == 0 {
			for i := 1; i < n; i++ {
				_, err := recv(c, p, in[:1], AnySource, 100+round)
				fail(err)
			}
			for i := 1; i < n; i++ {
				fail(c.Send(p, one, i, 200+round))
			}
		} else {
			fail(c.Send(p, one, 0, 100+round))
			_, err := recv(c, p, in[:1], 0, 200+round)
			fail(err)
		}
	}
}

// ledger renders everything countable about a finished world.
func ledger(k *sim.Kernel, pl *cluster.Platform, comms []*Comm) string {
	var b strings.Builder
	fmt.Fprintf(&b, "end %v events %d\n", k.Now(), k.Events())
	for r, c := range comms {
		fc, st := c.t.Core().FlowControl(), c.t.Core().Stats()
		fmt.Fprintf(&b, "rank %d: mpi %+v svc %+v nic %+v pkts %d malformed %d orphaned %d credits sent %d recvd %d avail",
			r, c.Stats(), c.t.Stats(), pl.NICs[r].Stats(), c.t.Packets(), st.Malformed, st.Orphaned, fc.CreditsSent, fc.CreditsRecvd)
		for dst := range comms {
			fmt.Fprintf(&b, " %d", fc.Available(dst))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func runExchange(t *testing.T, g xport.Gen, nodes int, topo cluster.Topology, recv recvFn) string {
	k, pl, comms := topoWorld(g, nodes, topo)
	for _, c := range comms {
		c := c
		k.Spawn(fmt.Sprintf("rank%d", c.Rank()), func(p *sim.Proc) { exchange(t, c, p, recv) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return ledger(k, pl, comms)
}

func TestWaitMatchesExtractLoop(t *testing.T) {
	worlds := []struct {
		nodes int
		topo  cluster.Topology
	}{{2, cluster.SingleSwitch}, {16, cluster.FatTree}}
	for _, g := range []xport.Gen{xport.GenFM1, xport.GenFM2} {
		for _, w := range worlds {
			t.Run(fmt.Sprintf("%v/%d-%v", g, w.nodes, w.topo), func(t *testing.T) {
				loop := runExchange(t, g, w.nodes, w.topo, loopRecv)
				wait := runExchange(t, g, w.nodes, w.topo, (*Comm).Recv)
				if loop != wait {
					t.Fatalf("the wait is not the loop it replaces\n--- Extract loop\n%s--- Comm.Wait\n%s", loop, wait)
				}
			})
		}
	}
}
