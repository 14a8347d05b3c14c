// Package fmnet is a from-scratch Go reproduction of "Efficient Layering
// for High Speed Communication: Fast Messages 2.x" (Lauria, Pakin, Chien —
// HPDC-7, 1998), exposed through a public session façade.
//
// The root package is the only public surface: programs, the examples
// included, never import internal/ (TestDesignRules holds examples/ to it).
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
// and split the receive budget fairly:
//
//	 mpifm   sockfm   shmem   garr(-> own shmem)   svcload
//	    |       |       |       |                    |
//	HandlerSpace  (one namespaced slab per service)
//	    \       |       |       /                    /
//	     +------+---+---+------+--------------------+
//	                |
//	         xport.Endpoint          (ONE per node)
//	                |
//	         xport.Transport
//	           /          \
//	    OverFM1 adapter   OverFM2 (native)
//	    (staging copies)   (zero-copy streaming)
//	          |                  |
//	      internal/fm1      internal/fm2
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
//     engines embed.
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
//   - internal/bench: the measurement harness, the paper's numbers and the
//     trajectory gate.
//   - internal/scenario: chaos scenarios, the watchdog and campaigns.
//   - internal/par: replica-parallel campaigns, the one place simulations
//     run side by side.
//   - internal/alloctest: the measurement behind the zero-allocation pins.
//   - internal/bufpool: recycling: free lists, byte pools, one Stats and one
//     poison byte.
//   - internal/cmam, internal/legacy: the CM-5 Active Messages and Ethernet
//     overhead models of Figures 1 and 2.
//
// cmd/fmbench prints every figure and report; README.md says how to run
// each one.
package fmnet
