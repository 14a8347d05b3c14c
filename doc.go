// Package fmnet is a from-scratch Go reproduction of "Efficient Layering
// for High Speed Communication: Fast Messages 2.x" (Lauria, Pakin, Chien —
// HPDC-7, 1998), exposed through a public session façade.
//
// The root package is the only public surface: programs, the examples
// included, never import internal/ (TestDesignRules holds example_test.go to
// it, and each example's Output block pins what it prints).
// fmnet.New assembles a simulated cluster with ONE shared Fast Messages
// endpoint per node and attaches the requested co-resident services:
//
//	s, err := fmnet.New(
//	    fmnet.Nodes(64),
//	    fmnet.Topology(fmnet.FatTree),
//	    fmnet.FM2(),
//	    fmnet.WithMPI(),     // collectives + pt2pt -> s.MPI(rank)
//	    fmnet.WithSockets(), // Berkeley streams    -> s.Sockets(node)
//	    fmnet.WithShmem(),   // one-sided Put/Get   -> s.Shmem(node)
//	)
//	if err != nil { ... }
//	s.SpawnRanks("work", func(rank int, p *fmnet.Proc) {
//	    s.MPI(rank).Barrier(p)
//	})
//	err = s.Run()
//
// That is the paper's defining interface claim made structural: the
// messaging layer is a shared substrate multiplexed by handler dispatch, not
// a private NIC binding per library (§4.2). Every service binds to a
// HandlerSpace, its window onto the node's one endpoint, so co-resident
// services cannot collide on handler IDs, share one credit window per peer,
// and split the receive budget fairly. A handler is one entry in its
// engine's table, keyed by its wire id, and is registered once: the binding
// makes its one closure, and a message names its handler by that id:
//
//	 mpifm   sockfm   shmem   garr(-> own shmem)   svcload
//	    |       |       |       |                    |
//	HandlerSpace  (one namespaced slab per service)
//	    \       |       |       /                    /
//	     +------+---+---+------+--------------------+
//	                |
//	         xport.Endpoint          (ONE per node)
//	                |
//	         xport.Transport     (the engine binding: one closure per handler)
//	           /          \
//	    OverFM1 adapter   OverFM2 (native)
//	    (staging copies)   (zero-copy streaming)
//	          |                  |
//	      internal/fm1      internal/fm2
//	   (one handler table each: flowctl.Peers keyed by flowctl.HandlerID)
//	           \                /
//	        flowctl.EndpointCore (what FM 2.x kept from FM 1.x)
//	                |
//	     lanai NIC -> netsim fabric, all on the sim kernel
//
// Each design rule is stated once, in the doc of the package it governs;
// go doc ./internal/<pkg> prints it. The packages:
//
//   - internal/sim: the deterministic discrete-event kernel, one per
//     simulation, and the one FIFO (Queue).
//   - internal/netsim: the Myrinet fabric, the topology zoo, the fault model,
//     frame pools and buffer ownership.
//   - internal/hostmodel: machine cost profiles (sparc, ppro200), MPI's
//     per-message costs included.
//   - internal/lanai: the NIC, its firmware and the receive ring.
//   - internal/flowctl: what FM 2.x kept from FM 1.x, the endpoint core both
//     engines embed, and the one handler id type and table.
//   - internal/fm1: Fast Messages 1.x (Table 1).
//   - internal/fm2: Fast Messages 2.x (Table 2).
//   - internal/xport: the streaming transport contract, the shared endpoint,
//     the one Machine per generation and the rules for the layers above it.
//   - internal/mpifm: MPI point-to-point and collectives.
//   - internal/sockfm: Sockets-FM.
//   - internal/shmem: one-sided Put/Get.
//   - internal/garr: Global Arrays, over a private shmem node.
//   - internal/svcload: RPC service workloads and their virtual-time tails.
//   - internal/trafficgen: §2.1 message-size mixes and seeded samplers.
//   - internal/cluster: machine assembly, and where a machine may be built.
//   - internal/bench: the measurement harness, the paper's numbers, the
//     Ethernet and CM-5 Active Messages models of Figures 1 and 2, and the
//     allreduce scale ladder.
//   - internal/scenario: chaos scenarios, the watchdog and campaigns.
//   - internal/par: replica-parallel campaigns, the one place simulations
//     run side by side.
//   - internal/alloctest: the measurement behind the zero-allocation pins.
//   - internal/bufpool: recycling: one bounded free list, Recycler, behind
//     records, byte pools and frame pools, with one Stats and the one poison
//     fill every release gets.
//
// The surface is what is used (TestSurfaceIsUsed): an exported func, method,
// type, const, var or untagged struct field declared in non-test internal/
// code is named, outside its declaration, by a non-test file (benchmark/
// included) or example_test.go, and every untagged field there is read
// somewhere, tests included; an assignment, increment or literal key is not
// a read. The check is by name. Its one exception list, surfaceExceptions in
// design_test.go, gives each entry a reason starting "hook:" (a test in
// another package reads it) or "paper:" (the paper's own API), and a stale
// entry fails too.
//
// cmd/fmbench prints every figure and report; README.md says how to run
// each one.
package fmnet
