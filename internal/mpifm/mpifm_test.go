package mpifm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/fm2"
	"repro/internal/sim"
	"repro/internal/xport"
)

// attachWorld assembles the MPI layer the one way there is: one shared
// endpoint per node of pl on machine m's engine, the MPI service registered
// on each at m's MPI costs.
func attachWorld(pl *cluster.Platform, m xport.Machine, opt Options) []*Comm {
	eps := xport.AttachEndpoints(pl, m)
	return Attach(xport.Spaces(eps, Service), m.Profile.MPI, opt)
}

// topoWorld builds an n-rank world of generation g's machine on a fresh
// platform of topology topo.
func topoWorld(g xport.Gen, nodes int, topo cluster.Topology) (*sim.Kernel, *cluster.Platform, []*Comm) {
	m := g.Machine()
	k := sim.NewKernel()
	pl := cluster.New(k, m.Config(nodes, topo))
	return k, pl, attachWorld(pl, m, Options{})
}

// genWorld is topoWorld on one switch.
func genWorld(g xport.Gen, nodes int) (*sim.Kernel, []*Comm) {
	k, _, comms := topoWorld(g, nodes, cluster.SingleSwitch)
	return k, comms
}

func fm1World(nodes int) (*sim.Kernel, []*Comm) { return genWorld(xport.GenFM1, nodes) }
func fm2World(nodes int) (*sim.Kernel, []*Comm) { return genWorld(xport.GenFM2, nodes) }

// bothWorlds runs the same test body against each binding.
func bothWorlds(t *testing.T, nodes int, body func(t *testing.T, k *sim.Kernel, comms []*Comm)) {
	t.Run("fm1", func(t *testing.T) {
		k, comms := fm1World(nodes)
		body(t, k, comms)
	})
	t.Run("fm2", func(t *testing.T) {
		k, comms := fm2World(nodes)
		body(t, k, comms)
	})
}

func TestSendRecvRoundtrip(t *testing.T) {
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		msg := []byte("mpi over fast messages")
		k.Spawn("rank0", func(p *sim.Proc) {
			if err := comms[0].Send(p, msg, 1, 7); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			buf := make([]byte, 100)
			st, err := comms[1].Recv(p, buf, 0, 7)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Source != 0 || st.Tag != 7 || st.Len != len(msg) {
				t.Errorf("status %+v", st)
			}
			if !bytes.Equal(buf[:st.Len], msg) {
				t.Error("payload corrupted")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTagMatching(t *testing.T) {
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		k.Spawn("rank0", func(p *sim.Proc) {
			for _, tag := range []int{5, 3, 9} {
				if err := comms[0].Send(p, []byte{byte(tag)}, 1, tag); err != nil {
					t.Error(err)
				}
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			// Receive out of send order by tag.
			for _, tag := range []int{9, 5, 3} {
				var b [1]byte
				st, err := comms[1].Recv(p, b[:], 0, tag)
				if err != nil {
					t.Error(err)
					return
				}
				if int(b[0]) != tag || st.Tag != tag {
					t.Errorf("tag %d got payload %d", tag, b[0])
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	bothWorlds(t, 3, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		k.Spawn("rank1", func(p *sim.Proc) {
			if err := comms[1].Send(p, []byte{11}, 0, 4); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rank2", func(p *sim.Proc) {
			p.Delay(200 * sim.Microsecond)
			if err := comms[2].Send(p, []byte{22}, 0, 8); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rank0", func(p *sim.Proc) {
			seen := map[int]int{}
			for i := 0; i < 2; i++ {
				var b [1]byte
				st, err := comms[0].Recv(p, b[:], AnySource, AnyTag)
				if err != nil {
					t.Error(err)
					return
				}
				seen[st.Source] = int(b[0])
			}
			if seen[1] != 11 || seen[2] != 22 {
				t.Errorf("seen %+v", seen)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	// MPI guarantee: messages from the same source with the same tag are
	// received in send order.
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		const n = 50
		k.Spawn("rank0", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if err := comms[0].Send(p, []byte{byte(i)}, 1, 3); err != nil {
					t.Error(err)
				}
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				var b [1]byte
				if _, err := comms[1].Recv(p, b[:], 0, 3); err != nil {
					t.Error(err)
					return
				}
				if int(b[0]) != i {
					t.Errorf("overtaking: got %d at position %d", b[0], i)
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnexpectedThenPosted(t *testing.T) {
	// Message arrives before the receive is posted: must take the pool
	// path, then complete correctly.
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		payload := bytes.Repeat([]byte{0x5A}, 600)
		k.Spawn("rank0", func(p *sim.Proc) {
			if err := comms[0].Send(p, payload, 1, 1); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			// Let the message arrive and get extracted as unexpected.
			p.Delay(2 * sim.Millisecond)
			comms[1].t.Extract(p, 0)
			if comms[1].Stats().Unexpected != 1 {
				t.Errorf("unexpected count %d, want 1", comms[1].Stats().Unexpected)
			}
			buf := make([]byte, len(payload))
			st, err := comms[1].Recv(p, buf, 0, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Len != len(payload) || !bytes.Equal(buf, payload) {
				t.Error("pool-path payload corrupted")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPrePostedTakesDirectPath(t *testing.T) {
	// A receive posted before arrival must land without the pool copy.
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		payload := bytes.Repeat([]byte{0xC3}, 900)
		k.Spawn("rank0", func(p *sim.Proc) {
			p.Delay(500 * sim.Microsecond) // receiver posts first
			if err := comms[0].Send(p, payload, 1, 2); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			buf := make([]byte, len(payload))
			st, err := comms[1].Recv(p, buf, 0, 2)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf[:st.Len], payload) {
				t.Error("payload corrupted")
			}
			if comms[1].Stats().Direct != 1 || comms[1].Stats().Unexpected != 0 {
				t.Errorf("stats %+v, want direct path", comms[1].Stats())
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestIrecvWaitall(t *testing.T) {
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		const n = 8
		k.Spawn("rank0", func(p *sim.Proc) {
			// Odd messages go by Isend, so Waitall covers send requests too.
			var sends []*Request
			for i := 0; i < n; i++ {
				msg := []byte{byte(i), 0, 0, 0}
				if i%2 == 0 {
					if err := comms[0].Send(p, msg, 1, i+1); err != nil {
						t.Error(err)
					}
					continue
				}
				r, err := comms[0].Isend(p, msg, 1, i+1)
				if err != nil {
					t.Error(err)
					return
				}
				sends = append(sends, r)
			}
			comms[0].Waitall(p, sends)
			for i, r := range sends {
				if st := comms[0].Wait(p, r); st.Source != 0 || st.Tag != 2*i+2 || st.Len != 4 {
					t.Errorf("isend %d completed with status %+v", i, st)
				}
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			bufs := make([][]byte, n)
			reqs := make([]*Request, n)
			for i := 0; i < n; i++ {
				bufs[i] = make([]byte, 4)
				r, err := comms[1].Irecv(p, bufs[i], 0, i+1)
				if err != nil {
					t.Error(err)
					return
				}
				reqs[i] = r
			}
			comms[1].Waitall(p, reqs)
			for i := 0; i < n; i++ {
				if bufs[i][0] != byte(i) {
					t.Errorf("req %d got %d", i, bufs[i][0])
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrier(t *testing.T) {
	bothWorlds(t, 4, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		var after [4]sim.Time
		var before [4]sim.Time
		for r := 0; r < 4; r++ {
			r := r
			k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				p.Delay(sim.Time(r*100) * sim.Microsecond) // skewed arrival
				before[r] = p.Now()
				if err := comms[r].Barrier(p); err != nil {
					t.Error(err)
				}
				after[r] = p.Now()
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		// No rank may leave the barrier before the last rank entered.
		var lastEnter sim.Time
		for _, b := range before {
			if b > lastEnter {
				lastEnter = b
			}
		}
		for r, a := range after {
			if a < lastEnter {
				t.Errorf("rank %d left barrier at %v before last entry %v", r, a, lastEnter)
			}
		}
	})
}

func TestSendErrors(t *testing.T) {
	k, comms := fm2World(2)
	k.Spawn("rank0", func(p *sim.Proc) {
		if err := comms[0].Send(p, []byte{1}, 5, 1); err == nil {
			t.Error("bad rank accepted")
		}
		if err := comms[0].Send(p, []byte{1}, 1, -3); err == nil {
			t.Error("negative tag accepted")
		}
		if err := comms[0].Send(p, make([]byte, fm2.DefaultMaxMessage), 1, 1); err == nil {
			t.Error("oversize accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedReceive(t *testing.T) {
	// Posted buffer smaller than the message: copy what fits, drop the rest.
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		payload := bytes.Repeat([]byte{9}, 800)
		k.Spawn("rank0", func(p *sim.Proc) {
			p.Delay(500 * sim.Microsecond)
			if err := comms[0].Send(p, payload, 1, 1); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			buf := make([]byte, 100)
			st, err := comms[1].Recv(p, buf, 0, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Len != 100 {
				t.Errorf("len %d, want 100", st.Len)
			}
			for _, b := range buf {
				if b != 9 {
					t.Error("truncated payload corrupted")
					break
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRingExchange(t *testing.T) {
	// Each rank sends to (rank+1)%n and receives from (rank-1+n)%n.
	bothWorlds(t, 4, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		const n = 4
		for r := 0; r < n; r++ {
			r := r
			k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				right, left := (r+1)%n, (r+n-1)%n
				buf := make([]byte, 4)
				req, err := comms[r].Irecv(p, buf, left, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if err := comms[r].Send(p, []byte{byte(r), 0, 0, 0}, right, 1); err != nil {
					t.Error(err)
					return
				}
				comms[r].Wait(p, req)
				if buf[0] != byte(left) {
					t.Errorf("rank %d got %d from left, want %d", r, buf[0], left)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: random message sizes and tags, posted in random order, all
// arrive intact on both bindings.
func TestPropertyRandomTraffic(t *testing.T) {
	f := func(sizes []uint16, seed uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 10 {
			sizes = sizes[:10]
		}
		for _, mk := range []func(int) (*sim.Kernel, []*Comm){fm1World, fm2World} {
			k, comms := mk(2)
			ok := true
			k.Spawn("rank0", func(p *sim.Proc) {
				for i, s := range sizes {
					n := int(s)%3000 + 1
					msg := bytes.Repeat([]byte{byte(i + 1)}, n)
					if err := comms[0].Send(p, msg, 1, i+1); err != nil {
						ok = false
					}
				}
			})
			k.Spawn("rank1", func(p *sim.Proc) {
				// Receive in reverse tag order to force pool traffic.
				for i := len(sizes) - 1; i >= 0; i-- {
					n := int(sizes[i])%3000 + 1
					buf := make([]byte, n)
					st, err := comms[1].Recv(p, buf, 0, i+1)
					if err != nil || st.Len != n {
						ok = false
						return
					}
					for _, b := range buf {
						if b != byte(i+1) {
							ok = false
							return
						}
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Error(err)
				return false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	// A rank may send to itself on either binding: the transport loopback
	// delivers through the same matching machinery as remote traffic, both
	// when the receive is pre-posted (direct) and when it is not (pool).
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		payload := bytes.Repeat([]byte{0x42}, 700)
		k.Spawn("rank0", func(p *sim.Proc) {
			// Pre-posted: loopback completes the request during Send.
			buf := make([]byte, len(payload))
			req, err := comms[0].Irecv(p, buf, 0, 5)
			if err != nil {
				t.Error(err)
				return
			}
			if err := comms[0].Send(p, payload, 0, 5); err != nil {
				t.Error(err)
				return
			}
			st := comms[0].Wait(p, req)
			if st.Source != 0 || st.Len != len(payload) || !bytes.Equal(buf, payload) {
				t.Errorf("pre-posted self-send corrupted: %+v", st)
			}
			// Unexpected: Send first, then Recv drains the pool.
			if err := comms[0].Send(p, payload, 0, 6); err != nil {
				t.Error(err)
				return
			}
			buf2 := make([]byte, len(payload))
			st2, err := comms[0].Recv(p, buf2, 0, 6)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf2, payload) || st2.Len != len(payload) {
				t.Error("unexpected-path self-send corrupted")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestForgedHeaderLengths: the payload length in an MPI header is a claim
// from the wire. A message whose header promises a payload it does not carry
// (negative, or longer than what follows) is discarded before the length
// sizes a slice or a buffer — on the posted path and on the unexpected one —
// and the genuine message behind it is the one the receive gets. The forged
// messages go through xport.Send on the MPI layer's own HandlerSpace.
func TestForgedHeaderLengths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int32
		posted bool
	}{
		{"negative, posted", -1, true},
		{"negative, unexpected", -1, false},
		{"longer than the message, posted", 1 << 20, true},
		{"longer than the message, unexpected", 1 << 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
				k.Spawn("rank0", func(p *sim.Proc) {
					forged := append(comms[0].encodeHeader(7, 0), "evil"...)
					binary.LittleEndian.PutUint32(forged[12:], uint32(tc.n))
					if err := xport.Send(p, comms[0].t, 1, mpiHandlerID, forged); err != nil {
						t.Error(err)
					}
					for _, tag := range []int{7, 9} {
						if err := comms[0].Send(p, []byte("real"), 1, tag); err != nil {
							t.Error(err)
						}
					}
				})
				k.Spawn("rank1", func(p *sim.Proc) {
					buf := make([]byte, 64)
					if !tc.posted {
						// Waiting on tag 9 first lets both tag-7 messages
						// arrive with no receive posted for them.
						if _, err := comms[1].Recv(p, buf, 0, 9); err != nil {
							t.Error(err)
						}
					}
					st, err := comms[1].Recv(p, buf, 0, 7)
					if err != nil || st.Len != 4 || string(buf[:4]) != "real" {
						t.Errorf("receive got %+v %q (err %v), want the genuine 4-byte message", st, buf[:4], err)
					}
					if tc.posted {
						comms[1].Recv(p, buf, 0, 9)
					}
				})
				if err := k.RunUntil(sim.Second); err != nil {
					t.Fatal(err)
				}
				if k.Live() != 0 {
					t.Fatalf("%d procs never finished", k.Live())
				}
			})
		})
	}
}
