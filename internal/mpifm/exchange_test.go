package mpifm

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/flowctl"
	"repro/internal/sim"
	"repro/internal/xport"
)

// runRanks spawns body once per rank and runs the world to a one-second
// horizon: a wedged exchange fails in virtual time, with the hang report,
// not at the test binary's timeout.
func runRanks(t *testing.T, k *sim.Kernel, comms []*Comm, body func(p *sim.Proc, c *Comm)) {
	t.Helper()
	for r, c := range comms {
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) { body(p, c) })
	}
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	defer k.Shutdown()
	if k.Live() > 0 {
		t.Fatalf("%d ranks hung at %v:\n%s", len(comms), k.Now(), k.HangReport())
	}
}

// legBytes is the largest payload, a whole number of uint32 elements, that
// takes exactly pkts packets on c's endpoint once the MPI header is added.
func legBytes(t *testing.T, c *Comm, pkts int) int {
	t.Helper()
	core := c.t.Core()
	n := (pkts*core.MTU() - HeaderSize) &^ 3
	if got := core.Packets(HeaderSize + n); got != pkts {
		t.Fatalf("a %d-byte leg takes %d packets, want %d", n, got, pkts)
	}
	return n
}

// exchangeOp is one exchange-shaped collective, run with every leg leg bytes
// long, and the output every rank of an n-rank world must end with.
type exchangeOp struct {
	name string
	algo CollectiveAlgo
	run  func(p *sim.Proc, c *Comm, leg int) ([]byte, error)
	want func(r, n, leg int) []byte
}

// allreduceWant is the element-wise uint32 sum of every rank's input.
func allreduceWant(_, n, size int) []byte {
	acc := fillPattern(0, size)
	for r := 1; r < n; r++ {
		OpSumU32.Combine(acc, fillPattern(r, size))
	}
	return acc
}

// allgatherWant is every rank's input, in rank order.
func allgatherWant(_, n, leg int) []byte {
	var out []byte
	for r := range n {
		out = append(out, fillPattern(r, leg)...)
	}
	return out
}

// alltoallIn is rank r's Alltoall send buffer: chunk j is fillPattern(r·n+j).
func alltoallIn(r, n, leg int) []byte {
	var in []byte
	for j := range n {
		in = append(in, fillPattern(r*n+j, leg)...)
	}
	return in
}

var exchangeOps = []exchangeOp{
	{"allreduce/recdbl", AlgoRecursiveDoubling,
		func(p *sim.Proc, c *Comm, leg int) ([]byte, error) {
			out := make([]byte, leg)
			return out, c.Allreduce(p, fillPattern(c.Rank(), leg), out, OpSumU32)
		}, allreduceWant},
	{"allreduce/ring", AlgoRing,
		// Ring legs are one block each: 1/n of the buffer.
		func(p *sim.Proc, c *Comm, leg int) ([]byte, error) {
			out := make([]byte, c.Size()*leg)
			return out, c.Allreduce(p, fillPattern(c.Rank(), c.Size()*leg), out, OpSumU32)
		}, func(r, n, leg int) []byte { return allreduceWant(r, n, n*leg) }},
	{"allgather/recdbl", AlgoRecursiveDoubling,
		func(p *sim.Proc, c *Comm, leg int) ([]byte, error) {
			out := make([]byte, c.Size()*leg)
			return out, c.Allgather(p, fillPattern(c.Rank(), leg), out)
		}, allgatherWant},
	{"allgather/ring", AlgoRing,
		func(p *sim.Proc, c *Comm, leg int) ([]byte, error) {
			out := make([]byte, c.Size()*leg)
			return out, c.Allgather(p, fillPattern(c.Rank(), leg), out)
		}, allgatherWant},
	{"alltoall", AlgoAuto,
		func(p *sim.Proc, c *Comm, leg int) ([]byte, error) {
			out := make([]byte, c.Size()*leg)
			return out, c.Alltoall(p, alltoallIn(c.Rank(), c.Size(), leg), out)
		}, func(r, n, leg int) []byte {
			var out []byte
			for i := range n {
				out = append(out, fillPattern(i*n+r, leg)...)
			}
			return out
		}},
}

// TestExchangeAboveTheCreditWindow runs every exchange-shaped collective
// where a leg's send can stall on flow control, on both generations, and
// checks each rank's output. sendrecv sends first only when the credits in
// hand cover the whole leg; above that it keeps the parity order, which is
// all that stands between two ranks sending at each other and a deadlock.
//   - Above the window: every leg is one packet more than the credit window,
//     on a world whose window is flowctl.MinWindow and on a small odd one.
//   - Owed credits: a pair whose legs fit the window, but one rank, or both,
//     first sends the other a message the other does not extract until the
//     collective, so that rank's credits no longer cover its leg: one side
//     sends first, the other keeps the parity order; or both keep it.
func TestExchangeAboveTheCreditWindow(t *testing.T) {
	for _, w := range []struct {
		g     xport.Gen
		floor int // the rank count whose credit window is flowctl.MinWindow
	}{{xport.GenFM1, 16}, {xport.GenFM2, 32}} {
		t.Run(w.g.String(), func(t *testing.T) {
			for _, n := range []int{w.floor, 5} {
				for _, op := range exchangeOps {
					t.Run(fmt.Sprintf("n%d/%s", n, op.name), func(t *testing.T) {
						k, comms := genWorld(w.g, n)
						window := comms[0].t.Core().FlowControl().Window()
						if n == w.floor && window != flowctl.MinWindow {
							t.Fatalf("%d ranks: credit window %d, want the %d floor", n, window, flowctl.MinWindow)
						}
						leg := legBytes(t, comms[0], window+1)
						checkExchange(t, k, comms, op, leg, nil)
					})
				}
			}
			for _, owes := range [][]bool{{true, false}, {false, true}, {true, true}} {
				for _, op := range exchangeOps {
					t.Run(fmt.Sprintf("owed%v/%s", owes, op.name), func(t *testing.T) {
						k, comms := genWorld(w.g, 2)
						window := comms[0].t.Core().FlowControl().Window()
						leg := legBytes(t, comms[0], window-1)
						checkExchange(t, k, comms, op, leg, owes)
					})
				}
			}
		})
	}
}

// checkExchange runs op on every rank with legs of leg bytes and checks the
// outputs. If owes is set, rank r first sends its partner a two-packet
// message when owes[r], checks that its credits then cover its leg exactly
// when it owes none, and the partner receives that message after the
// collective.
func checkExchange(t *testing.T, k *sim.Kernel, comms []*Comm, op exchangeOp, leg int, owes []bool) {
	t.Helper()
	const owedTag = 5
	n := len(comms)
	owed := make([]byte, legBytes(t, comms[0], 2))
	outs := make([][]byte, n)
	runRanks(t, k, comms, func(p *sim.Proc, c *Comm) {
		c.SetCollectiveAlgo(op.algo)
		r, partner := c.Rank(), 1-c.Rank()
		if owes != nil {
			if owes[r] {
				if err := c.Send(p, owed, partner, owedTag); err != nil {
					t.Error(err)
					return
				}
			}
			if c.creditsCover(partner, leg) == owes[r] {
				t.Errorf("rank %d: owes %v, but its credits cover a %d-byte leg: %v", r, owes[r], leg, !owes[r])
			}
		}
		out, err := op.run(p, c, leg)
		if err != nil {
			t.Error(err)
			return
		}
		outs[r] = out
		if owes != nil && owes[partner] {
			if _, err := c.Recv(p, make([]byte, len(owed)), partner, owedTag); err != nil {
				t.Error(err)
			}
		}
	})
	for r := range n {
		if want := op.want(r, n, leg); string(outs[r]) != string(want) {
			t.Errorf("rank %d of %d: %s output differs (%d bytes, want %d)", r, n, op.name, len(outs[r]), len(want))
		}
	}
}

// TestAllreduceIsOneTripPerRound holds recursive doubling to its cost: one
// one-way trip per round once both partners send at once. A warm 1 KiB
// allreduce on one switch on FM 2.x grows by the same round per doubling of
// the rank count, within 10 %, from one rank, where it is the copy of the
// input into the output alone, to 64. That round, the two-rank time less the
// one-rank time, is an exchange and a combine: under 1.25 one-way 1 KiB
// trips. Were one partner of each exchange to wait for the other's message
// before sending, a round would cost two trips.
func TestAllreduceIsOneTripPerRound(t *testing.T) {
	const size = 1024
	trip := warmTrip(t, size)
	prev := warmAllreduce(t, 1, size)
	round := warmAllreduce(t, 2, size) - prev
	t.Logf("one-way %d B trip %v; 1-rank allreduce %v, one round %v", size, trip, prev, round)
	if float64(round) >= 1.25*float64(trip) {
		t.Errorf("an allreduce round costs %v, want under 1.25 × the %v one-way trip", round, trip)
	}
	for n := 2; n <= 64; n *= 2 {
		cur := warmAllreduce(t, n, size)
		if d := math.Abs(float64(cur-prev-round)) / float64(round); d > 0.10 {
			t.Errorf("%d ranks: allreduce %v, %v over %d ranks; want one round, %v, within 10 %% (off by %.1f %%)",
				n, cur, cur-prev, n/2, round, 100*d)
		}
		prev = cur
	}
}

// warmAllreduce runs three size-byte recursive-doubling allreduces on an
// n-rank FM 2.x world on one switch, checks the last one's sum, and returns
// its time: from the last rank leaving the second to the last leaving the
// third.
func warmAllreduce(t *testing.T, n, size int) sim.Time {
	t.Helper()
	k, comms := barrierWorld(xport.GenFM2, n)
	var left [3]sim.Time
	runRanks(t, k, comms, func(p *sim.Proc, c *Comm) {
		c.SetCollectiveAlgo(AlgoRecursiveDoubling)
		in, out := make([]byte, size), make([]byte, size)
		binary.LittleEndian.PutUint32(in, uint32(c.Rank()))
		for i := range left {
			if err := c.Allreduce(p, in, out, OpSumU32); err != nil {
				t.Error(err)
				return
			}
			left[i] = max(left[i], p.Now())
		}
		if got, want := binary.LittleEndian.Uint32(out), uint32(n*(n-1)/2); got != want {
			t.Errorf("%d ranks: rank %d sums %d, want %d", n, c.Rank(), got, want)
		}
	})
	return left[2] - left[1]
}

// warmTrip is one MPI-FM 2.x one-way trip of size bytes: half the third of
// three ping-pong round trips between two ranks on one switch.
func warmTrip(t *testing.T, size int) sim.Time {
	t.Helper()
	k, comms := genWorld(xport.GenFM2, 2)
	var back [3]sim.Time
	runRanks(t, k, comms, func(p *sim.Proc, c *Comm) {
		buf := make([]byte, size)
		for i := range back {
			var err error
			if c.Rank() == 0 {
				if err = c.Send(p, buf, 1, 1); err == nil {
					_, err = c.Recv(p, buf, 1, 1)
				}
				back[i] = p.Now()
			} else if _, err = c.Recv(p, buf, 0, 1); err == nil {
				err = c.Send(p, buf, 0, 1)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	return (back[2] - back[1]) / 2
}
