package shmem

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

func nodes(n int) (*sim.Kernel, []*Node) { return genNodes(xport.GenFM2, n) }

// genNodes attaches shmem on every node of a one-switch platform of
// generation g's machine.
func genNodes(g xport.Gen, n int) (*sim.Kernel, []*Node) {
	m := g.Machine()
	k := sim.NewKernel()
	eps := xport.AttachEndpoints(cluster.New(k, m.Config(n, cluster.SingleSwitch)), m)
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

// TestForgedHeaderLengths: every length in a shmem header is a claim from
// the wire. A put or a get response that promises more payload than the
// message carries, a get response longer than the buffer waiting for it, and
// a get request no response could answer are discarded before the length
// sizes a slice or an allocation; the genuine Get running meanwhile still
// completes. The forged messages go through xport.Send on the shmem layer's
// own HandlerSpace.
func TestForgedHeaderLengths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   int
		length func(n *Node) int
	}{
		{"put longer than the message", kindPut, func(*Node) int { return 64 }},
		{"get response longer than the message", kindGetResp, func(*Node) int { return 8 }},
		{"get response longer than the buffer", kindGetResp, func(*Node) int { return 1 << 20 }},
		{"get request no response can carry", kindGetReq, func(n *Node) int { return n.t.MaxMessage() - headerSize + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, ns := nodes(2)
			want := bytes.Repeat([]byte{0xAB}, 64)
			ns[0].Register(1, want)
			ns[1].Register(1, make([]byte, 64))
			done := false
			k.Spawn("forger", func(p *sim.Proc) {
				// Request ID 0 is the one the victim's first Get waits on.
				forged := append(ns[0].encode(tc.kind, 1, 0, tc.length(ns[0]), 0), "evil"...)
				if err := xport.Send(p, ns[0].t, 1, shmemHandlerID, forged); err != nil {
					t.Error(err)
				}
				serve(p, ns[0], func() bool { return done })
			})
			k.Spawn("victim", func(p *sim.Proc) {
				buf := make([]byte, 8)
				if err := ns[1].Get(p, 0, 1, 0, buf); err != nil {
					t.Error(err)
				}
				if !bytes.Equal(buf, want[:8]) {
					t.Errorf("get returned %x, want the region's bytes", buf)
				}
				for i := 0; i < 50; i++ {
					ns[1].Progress(p)
					p.Delay(sim.Microsecond)
				}
				done = true
			})
			if err := k.RunUntil(sim.Second); err != nil {
				t.Fatal(err)
			}
			if k.Live() != 0 {
				t.Fatalf("%d procs never finished", k.Live())
			}
			if st := ns[1].Stats(); st.RemotePuts != 0 || st.RemoteGetReqs != 0 {
				t.Errorf("forged message was served: %+v", st)
			}
		})
	}
}

// TestGetLargerThanAResponse: a Get no single response can carry is refused
// at the origin instead of wedging on a request the target must drop.
func TestGetLargerThanAResponse(t *testing.T) {
	k, ns := nodes(2)
	k.Spawn("origin", func(p *sim.Proc) {
		if err := ns[0].Get(p, 1, 1, 0, make([]byte, ns[0].t.MaxMessage())); err == nil {
			t.Error("oversize get accepted")
		}
	})
	if err := k.RunUntil(sim.Second); err != nil || k.Live() != 0 {
		t.Fatalf("run: %v, %d procs never finished", err, k.Live())
	}
}
