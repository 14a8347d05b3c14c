package shmem

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

func nodes(n int) (*sim.Kernel, []*Node) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = n
	pl := cluster.New(k, cfg)
	eps := xport.AttachEndpoints(pl, xport.EndpointConfig{Gen: xport.GenFM2})
	out := make([]*Node, n)
	for i, sp := range xport.Spaces(eps, Service) {
		out[i] = Attach(sp)
	}
	return k, out
}

// serve keeps a passive target responsive until stop returns true.
func serve(p *sim.Proc, n *Node, stop func() bool) {
	for !stop() {
		n.Progress(p)
		p.Delay(sim.Microsecond)
	}
}

func TestPutLandsInRegion(t *testing.T) {
	k, ns := nodes(2)
	region := make([]byte, 1024)
	ns[1].Register(9, region)
	data := bytes.Repeat([]byte{0xAD}, 256)
	done := false
	k.Spawn("origin", func(p *sim.Proc) {
		if err := ns[0].Put(p, 1, 9, 128, data); err != nil {
			t.Error(err)
		}
		ns[0].Quiet(p)
		done = true
	})
	k.Spawn("target", func(p *sim.Proc) { serve(p, ns[1], func() bool { return done }) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(region[128:384], data) {
		t.Fatal("put payload not in region")
	}
	for _, b := range region[:128] {
		if b != 0 {
			t.Fatal("put clobbered bytes before offset")
		}
	}
	if ns[1].Stats().DirectPutBytes != 256 {
		t.Fatalf("direct put bytes %d", ns[1].Stats().DirectPutBytes)
	}
}

func TestGetReadsRemote(t *testing.T) {
	k, ns := nodes(2)
	region := make([]byte, 512)
	for i := range region {
		region[i] = byte(i)
	}
	ns[1].Register(5, region)
	done := false
	k.Spawn("origin", func(p *sim.Proc) {
		buf := make([]byte, 100)
		if err := ns[0].Get(p, 1, 5, 50, buf); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, region[50:150]) {
			t.Error("get returned wrong bytes")
		}
		done = true
	})
	k.Spawn("target", func(p *sim.Proc) { serve(p, ns[1], func() bool { return done }) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQuietWaitsForAllAcks(t *testing.T) {
	k, ns := nodes(2)
	ns[1].Register(1, make([]byte, 4096))
	done := false
	k.Spawn("origin", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := ns[0].Put(p, 1, 1, i*64, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
				t.Error(err)
			}
		}
		ns[0].Quiet(p)
		if ns[0].pending != 0 {
			t.Errorf("pending %d after Quiet", ns[0].pending)
		}
		done = true
	})
	k.Spawn("target", func(p *sim.Proc) { serve(p, ns[1], func() bool { return done }) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	reg := ns[1].Region(1)
	for i := 0; i < 10; i++ {
		if reg[i*64] != byte(i+1) {
			t.Fatalf("block %d missing", i)
		}
	}
}

func TestPutOutOfBoundsDiscarded(t *testing.T) {
	k, ns := nodes(2)
	ns[1].Register(1, make([]byte, 64))
	k.Spawn("origin", func(p *sim.Proc) {
		if err := ns[0].Put(p, 1, 1, 32, make([]byte, 64)); err != nil {
			t.Error(err)
		}
		// No ack will come for a rejected put; just drive a while.
		for i := 0; i < 50; i++ {
			ns[0].Progress(p)
			p.Delay(sim.Microsecond)
		}
	})
	stop := false
	k.Spawn("target", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			ns[1].Progress(p)
			p.Delay(sim.Microsecond)
		}
		stop = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	_ = stop
	if ns[1].Stats().RemotePuts != 0 {
		t.Fatal("out-of-bounds put landed")
	}
}

func TestGetUnknownRegionReturnsZeros(t *testing.T) {
	k, ns := nodes(2)
	done := false
	k.Spawn("origin", func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{0xFF}, 32)
		if err := ns[0].Get(p, 1, 77, 0, buf); err != nil {
			t.Error(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Error("unknown region get returned nonzero")
				break
			}
		}
		done = true
	})
	k.Spawn("target", func(p *sim.Proc) { serve(p, ns[1], func() bool { return done }) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBidirectionalPuts(t *testing.T) {
	k, ns := nodes(2)
	ns[0].Register(1, make([]byte, 256))
	ns[1].Register(1, make([]byte, 256))
	var doneCount int
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("rank", func(p *sim.Proc) {
			peer := 1 - i
			if err := ns[i].Put(p, peer, 1, 0, bytes.Repeat([]byte{byte(i + 1)}, 256)); err != nil {
				t.Error(err)
			}
			ns[i].Quiet(p)
			doneCount++
			for doneCount < 2 {
				ns[i].Progress(p)
				p.Delay(sim.Microsecond)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ns[0].Region(1)[0] != 2 || ns[1].Region(1)[0] != 1 {
		t.Fatal("bidirectional puts did not land")
	}
}
