package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// --- partition shape validation -----------------------------------------

func TestFatTreePartitionValidate(t *testing.T) {
	cases := []struct {
		fp   FatTreePartition
		want string // substring of the error, "" = valid
	}{
		{FatTreePartition{Edges: 4, Hosts: 2, Spines: 2, Parts: 2}, ""},
		{FatTreePartition{Edges: 8, Hosts: 4, Spines: 4, Parts: 4}, ""},
		{FatTreePartition{Edges: 4, Hosts: 2, Spines: 2, Parts: 1}, ">=2 parts"},
		{FatTreePartition{Edges: 2, Hosts: 2, Spines: 2, Parts: 4}, "exceed"},
		{FatTreePartition{Edges: 6, Hosts: 2, Spines: 2, Parts: 4}, "do not split evenly"},
	}
	for _, c := range cases {
		err := c.fp.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%+v: unexpected error %v", c.fp, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: want error containing %q, got %v", c.fp, c.want, err)
		}
	}
}

func TestFatTreeParLPOwnership(t *testing.T) {
	fp := FatTreePartition{Edges: 8, Hosts: 4, Spines: 4, Parts: 4}
	if got := fp.EdgeLP(0); got != 0 {
		t.Fatalf("EdgeLP(0) = %d", got)
	}
	if got := fp.EdgeLP(7); got != 3 {
		t.Fatalf("EdgeLP(7) = %d", got)
	}
	if got := fp.SpineLP(5); got != 1 {
		t.Fatalf("SpineLP(5) = %d", got)
	}
	// A node lives with its edge switch: node 9 hangs off edge 2.
	e := sim.NewEngine()
	defer e.Shutdown()
	lps := []*sim.LP{e.AddLP("a"), e.AddLP("b"), e.AddLP("c"), e.AddLP("d")}
	net := NewFatTreePar(lps, fp, DefaultMyrinet(), 0)
	if got, want := net.Iface(9).K, lps[fp.EdgeLP(2)].K; got != want {
		t.Fatalf("node 9 lives on kernel %p, want edge 2's %p", got, want)
	}
}

// --- fused-vs-partitioned bit-identity ----------------------------------

// arrival is one packet's observed delivery: virtual receive time plus the
// identity bytes that must match between the fused and partitioned fabrics.
type arrival struct {
	T       sim.Time
	Src     int
	Seq     uint64
	Pay     byte
	Corrupt bool
}

// fatTreeTrafficLog drives the same paced all-pairs pattern over any
// fat-tree Network and returns the per-node arrival logs. kernelOf supplies
// the kernel a node's procs must live on (the fused fabric uses one kernel
// for all; the partitioned fabric uses the owning LP's). Receivers are
// daemons so runs with fault-induced losses still terminate.
func fatTreeTrafficLog(t *testing.T, net *Network, kernelOf func(i int) *sim.Kernel, run func() error) [][]arrival {
	t.Helper()
	n := net.Nodes()
	got := make([][]arrival, n)
	for i := 0; i < n; i++ {
		i := i
		kernelOf(i).Spawn(fmt.Sprintf("send%d", i), func(p *sim.Proc) {
			// Stagger start times and pace injections so the trunks never
			// congest: the point of this test is timing identity, not
			// back-pressure (which a separate certificate covers — see
			// Certified).
			p.Delay(sim.Time(i) * 1300 * sim.Nanosecond)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				net.Iface(i).Send(p, &Packet{Dst: j, Payload: []byte{byte(i ^ j)}})
				p.Delay(25 * sim.Microsecond)
			}
		})
		kernelOf(i).SpawnDaemon(fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
			for {
				pkt := net.Iface(i).In.Recv(p)
				got[i] = append(got[i], arrival{p.Now(), pkt.Src, pkt.Seq, pkt.Payload[0], pkt.Corrupt})
			}
		})
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// parShape is the shape shared by the fused/partitioned comparison tests:
// 8 edge switches x 2 hosts (16 nodes), 4 spines, 4 LPs.
var parShape = FatTreePartition{Edges: 8, Hosts: 2, Spines: 4, Parts: 4}

func runFusedFatTree(t *testing.T, cfg LinkConfig, faults *FaultPlan) [][]arrival {
	t.Helper()
	k := sim.NewKernel()
	net := NewFatTree(k, parShape.Edges, parShape.Hosts, parShape.Spines, cfg, 100*sim.Nanosecond)
	if faults != nil {
		if err := net.ApplyFaults(*faults); err != nil {
			t.Fatal(err)
		}
	}
	return fatTreeTrafficLog(t, net, func(int) *sim.Kernel { return k }, k.Run)
}

func runPartitionedFatTree(t *testing.T, cfg LinkConfig, faults *FaultPlan) ([][]arrival, *Network) {
	t.Helper()
	e := sim.NewEngine()
	lps := make([]*sim.LP, parShape.Parts)
	for i := range lps {
		lps[i] = e.AddLP(fmt.Sprintf("part%d", i))
	}
	net := NewFatTreePar(lps, parShape, cfg, 100*sim.Nanosecond)
	if faults != nil {
		if err := net.ApplyFaults(*faults); err != nil {
			t.Fatal(err)
		}
	}
	log := fatTreeTrafficLog(t, net, func(i int) *sim.Kernel { return net.Iface(i).K }, e.Run)
	return log, net
}

// TestFatTreeParMatchesSequential is the netsim-layer conformance bar: the
// partitioned fabric must deliver every packet at the exact virtual instant
// the fused fabric does, under paced cross-LP traffic.
func TestFatTreeParMatchesSequential(t *testing.T) {
	cfg := DefaultMyrinet()
	cfg.Slots = 8
	seq := runFusedFatTree(t, cfg, nil)
	par, net := runPartitionedFatTree(t, cfg, nil)
	if !net.Certified() {
		t.Fatalf("paced traffic hit %d cut stalls; expected a certified run", net.CutStalls())
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("node %d arrival log diverged:\n fused: %v\n  part: %v", i, seq[i], par[i])
		}
	}
}

// TestFatTreeParFaultDeterminism pins the fault-decorrelation requirement:
// per-link RNG streams are keyed by link name only, so drops and corruption
// on cut trunks must fire on the same packets at the same instants as in the
// fused fabric, and the loss registries must be byte-identical.
func TestFatTreeParFaultDeterminism(t *testing.T) {
	cfg := DefaultMyrinet()
	cfg.Slots = 8
	plan := &FaultPlan{
		Seed: 1998,
		Rules: []FaultRule{
			{Links: "edge*->spine*", DropProb: 0.25},
			{Links: "spine*->edge*", CorruptProb: 0.25},
		},
	}
	seqLog := runFusedFatTree(t, cfg, plan)

	k2 := sim.NewKernel()
	seqNet := NewFatTree(k2, parShape.Edges, parShape.Hosts, parShape.Spines, cfg, 100*sim.Nanosecond)
	if err := seqNet.ApplyFaults(*plan); err != nil {
		t.Fatal(err)
	}
	_ = fatTreeTrafficLog(t, seqNet, func(int) *sim.Kernel { return k2 }, k2.Run)

	parLog, parNet := runPartitionedFatTree(t, cfg, plan)
	if !parNet.Certified() {
		t.Fatalf("paced faulty traffic hit %d cut stalls; expected a certified run", parNet.CutStalls())
	}
	for i := range seqLog {
		if !reflect.DeepEqual(seqLog[i], parLog[i]) {
			t.Fatalf("node %d arrival log diverged under faults:\n fused: %v\n  part: %v", i, seqLog[i], parLog[i])
		}
	}
	if got, want := parNet.LostFrames(), seqNet.LostFrames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("loss registries diverged:\n fused: %v\n  part: %v", want, got)
	}
}

// TestFatTreeTwinsCannotDrift: the sequential and the partitioned fat tree
// are one wiring under two placements, so whatever the partition count they
// describe themselves alike, name their links alike in the same order, and
// route alike.
func TestFatTreeTwinsCannotDrift(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	seq := NewFatTree(k, 8, 4, 4, DefaultMyrinet(), 0)
	for _, parts := range []int{2, 4} {
		e := sim.NewEngine()
		lps := make([]*sim.LP, parts)
		for i := range lps {
			lps[i] = e.AddLP(fmt.Sprintf("part%d", i))
		}
		par := NewFatTreePar(lps, FatTreePartition{Edges: 8, Hosts: 4, Spines: 4, Parts: parts}, DefaultMyrinet(), 0)
		if !strings.HasPrefix(par.Describe(), seq.Describe()) {
			t.Errorf("%d parts: described as %q, sequential as %q", parts, par.Describe(), seq.Describe())
		}
		if len(par.Links()) != len(seq.Links()) {
			t.Fatalf("%d parts: %d links, sequential has %d", parts, len(par.Links()), len(seq.Links()))
		}
		for i, l := range seq.Links() {
			if got := par.Links()[i].Name(); got != l.Name() {
				t.Fatalf("%d parts: link %d is %q, sequential has %q", parts, i, got, l.Name())
			}
		}
		if got, want := routeDigest(par), routeDigest(seq); got != want {
			t.Errorf("%d parts: route digest %#x, sequential %#x", parts, got, want)
		}
		e.Shutdown()
	}
}

// TestFatTreeParRejectsZeroLookahead pins the constructor guard: a
// partitioned fabric with no propagation delay has no lookahead to run on.
func TestFatTreeParRejectsZeroLookahead(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "PropDelay") {
			t.Fatalf("want PropDelay panic, got %v", r)
		}
	}()
	e := sim.NewEngine()
	lps := []*sim.LP{e.AddLP("a"), e.AddLP("b")}
	cfg := DefaultMyrinet()
	cfg.PropDelay = 0
	NewFatTreePar(lps, FatTreePartition{Edges: 2, Hosts: 1, Spines: 2, Parts: 2}, cfg, 0)
}
