// Fabric-zoo walkthrough: assembling the multi-stage topologies, reading
// their source routes, and watching trunk contention separate a
// switch-limited fabric from a bisection-limited one.
//
//	go run ./examples/fabric
//
// The paper's evaluation (Figures 4/6) lives on one Myrinet crossbar,
// where every port pair has a private path. Real FM-class machines
// (CP-PACS and friends) ran on multi-stage fabrics where trunks are
// shared. This example builds each member of the fabric zoo, shows the
// Myrinet-style source routes the switches consume, and runs the same cut
// workload on all of them.
package main

import (
	"fmt"
	"log"

	fmnet "repro"
)

// zoo is the fabric zoo in report order.
var zoo = []fmnet.Topo{fmnet.SingleSwitch, fmnet.Line, fmnet.FatTree, fmnet.Torus}

// build assembles a 16-node MPI session on the given topology.
func build(topo fmnet.Topo) *fmnet.Session {
	s, err := fmnet.New(fmnet.Nodes(16), fmnet.Topology(topo), fmnet.WithMPI())
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// cutAggregate runs 8 simultaneous MPI flows across the fabric's cut
// (rank i -> rank i+8) and reports aggregate bandwidth.
func cutAggregate(topo fmnet.Topo) float64 {
	s := build(topo)
	const size, msgs = 2048, 80
	var first, last fmnet.Time
	done := 0
	for i := 0; i < 8; i++ {
		src, dst := i, i+8
		s.SpawnOn(src, fmt.Sprintf("send%d", i), func(p *fmnet.Proc) {
			if first == 0 {
				first = p.Now()
			}
			msg := make([]byte, size)
			for m := 0; m < msgs; m++ {
				if err := s.MPI(src).Send(p, msg, dst, 1); err != nil {
					panic(err)
				}
			}
		})
		s.SpawnOn(dst, fmt.Sprintf("recv%d", i), func(p *fmnet.Proc) {
			buf := make([]byte, size)
			for m := 0; m < msgs; m++ {
				if _, err := s.MPI(dst).Recv(p, buf, src, 1); err != nil {
					panic(err)
				}
			}
			done++
			if done == 8 {
				last = p.Now()
			}
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return 8 * size * msgs / 1e6 / (last - first).Seconds()
}

func main() {
	fmt.Println("== The fabric zoo ==")
	for _, topo := range zoo {
		fmt.Printf("%-8s  %s\n", topo, build(topo).Fabric().Describe())
	}

	fmt.Println("\n== Source routes ==")
	fmt.Println("A route is the byte string the switches consume, one output")
	fmt.Println("port per hop (Myrinet source routing: zero routing state in")
	fmt.Println("the fabric). Node 0 -> node 15 on each topology:")
	for _, topo := range zoo {
		fmt.Printf("%-8s  route %v\n", topo, build(topo).Fabric().Route(0, 15))
	}
	fmt.Println("\nOn the fat tree the first byte picks the uplink: the spine is")
	fmt.Println("chosen deterministically per (src,dst) pair, so one edge's")
	fmt.Println("traffic spreads over every uplink:")
	fab := build(fmnet.FatTree).Fabric()
	for dst := 4; dst < 8; dst++ {
		fmt.Printf("  0 -> %2d  route %v\n", dst, fab.Route(0, dst))
	}
	fmt.Println("\nOn the torus, routes are dimension-order (X then Y) and a hop")
	fmt.Println("that takes a wraparound link switches to the dateline virtual")
	fmt.Println("channel (the +1 port of the pair) so back-pressure can never")
	fmt.Println("cycle around a ring:")
	fab = build(fmnet.Torus).Fabric()
	for _, dst := range []int{4, 12, 15} {
		fmt.Printf("  0 -> %2d  route %v\n", dst, fab.Route(0, dst))
	}

	fmt.Println("\n== Trunk contention: the cut experiment ==")
	fmt.Println("8 MPI flows stream 2 KiB messages across each fabric's cut")
	fmt.Println("(rank i -> rank i+8) simultaneously. One crossbar gives every")
	fmt.Println("flow a private path; the line funnels all 8 through one trunk;")
	fmt.Println("the fat tree's two uplinks per edge and the torus rings sit in")
	fmt.Println("between — switch-limited vs bisection-limited regimes:")
	for _, topo := range zoo {
		fmt.Printf("%-8s  aggregate %7.2f MB/s\n", topo, cutAggregate(topo))
	}
	fmt.Println("\n(fmbench -topo runs the full report: xport-level regimes, the")
	fmt.Println("layering matrix under cut load, and collective scaling across")
	fmt.Println("every fabric at up to 64 ranks.)")
}
