// MPI-FM example: a four-rank ring exchange followed by a two-rank
// bandwidth sweep, run over both FM generations to show the interface
// efficiency gap the paper measures (Figures 4 and 6).
//
//	go run ./examples/mpi
package main

import (
	"fmt"
	"log"

	fmnet "repro"
)

// world assembles an n-rank MPI session over one FM generation.
func world(n int, gen fmnet.Option) *fmnet.Session {
	s, err := fmnet.New(fmnet.Nodes(n), gen, fmnet.WithMPI())
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func ringExchange() {
	s := world(4, fmnet.FM2())
	fmt.Println("ring exchange, 4 ranks:")
	s.SpawnRanks("rank", func(r int, p *fmnet.Proc) {
		c := s.MPI(r)
		right := (r + 1) % c.Size()
		left := (r + c.Size() - 1) % c.Size()
		buf := make([]byte, 8)
		req, err := c.Irecv(p, buf, left, 1)
		if err != nil {
			log.Fatal(err)
		}
		msg := []byte(fmt.Sprintf("from %d !", r))
		if err := c.Send(p, msg, right, 1); err != nil {
			log.Fatal(err)
		}
		st := c.Wait(p, req)
		fmt.Printf("  rank %d got %q from rank %d at %s\n", r, buf[:st.Len], st.Source, p.Now())
		if err := c.Barrier(p); err != nil {
			log.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
}

// bandwidth streams msgs messages of size bytes rank0 -> rank1 — the
// receiver posts each receive then waits, the standard MPI bandwidth-test
// loop — and reports MB/s of virtual time.
func bandwidth(gen fmnet.Option, size, msgs int) float64 {
	s := world(2, gen)
	var start, end fmnet.Time
	s.SpawnOn(0, "rank0", func(p *fmnet.Proc) {
		start = p.Now()
		msg := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if err := s.MPI(0).Send(p, msg, 1, 1); err != nil {
				log.Fatal(err)
			}
		}
	})
	s.SpawnOn(1, "rank1", func(p *fmnet.Proc) {
		buf := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if _, err := s.MPI(1).Recv(p, buf, 0, 1); err != nil {
				log.Fatal(err)
			}
		}
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return float64(size) * float64(msgs) / 1e6 / (end - start).Seconds()
}

func bandwidthSweep() {
	fmt.Println("\nMPI bandwidth sweep (streaming, rank0 -> rank1):")
	fmt.Printf("  %8s  %14s  %14s\n", "size", "MPI/FM1 (MB/s)", "MPI/FM2 (MB/s)")
	for _, size := range []int{16, 128, 1024, 2048} {
		msgs := 400
		b1 := bandwidth(fmnet.FM1(), size, msgs)
		b2 := bandwidth(fmnet.FM2(), size, msgs)
		fmt.Printf("  %8d  %14.2f  %14.2f\n", size, b1, b2)
	}
	fmt.Println("  (the gap is the paper's interface-efficiency story: the same MPI")
	fmt.Println("   code delivers a far larger share of FM 2.x's bandwidth)")
}

func main() {
	ringExchange()
	bandwidthSweep()
}
