// Cross-binding conformance matrix: every upper layer, run over every FM
// generation through its xport binding, must deliver identical bytes — and
// each (layer, binding) cell must be deterministic in virtual time. This is
// the correctness half of the paper's layering claim: the binding changes
// the cost of a layer, never its semantics.
package xport_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/garr"
	"repro/internal/mpifm"
	"repro/internal/netsim"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sockfm"
	"repro/internal/xport"
)

// bindingCase names one FM generation to attach to a platform.
type bindingCase struct {
	name string
	gen  xport.Gen
}

var bindingCases = []bindingCase{{"fm1", xport.GenFM1}, {"fm2", xport.GenFM2}}

func (bc bindingCase) attach(pl *cluster.Platform) []*xport.Endpoint {
	return xport.AttachEndpoints(pl, bc.gen.Machine())
}

// pattern fills n bytes with a deterministic sequence seeded by s.
func pattern(n int, s byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(s)*31 + i*7 + 11)
	}
	return b
}

// scenario drives one upper layer on a fresh kernel. run spawns the procs
// and returns a finalize func, called after the kernel drains, that
// produces the delivered-bytes digest in a proc-order-independent way.
type scenario struct {
	name  string
	nodes int
	run   func(t *testing.T, k *sim.Kernel, eps []*xport.Endpoint) func() []byte
}

var scenarios = []scenario{
	{name: "mpi", nodes: 2, run: mpiScenario},
	{name: "sock", nodes: 2, run: sockScenario},
	{name: "shmem", nodes: 2, run: shmemScenario},
	{name: "garr", nodes: 3, run: garrScenario},
}

func mpiScenario(t *testing.T, k *sim.Kernel, eps []*xport.Endpoint) func() []byte {
	sp := xport.Spaces(eps, mpifm.Service)
	comms := mpifm.Attach(sp, sp[0].Core().Host().P.MPI, mpifm.Options{})
	sizes := []int{1, 100, 613, 2048, 5000}
	var rank0Got, rank1Got bytes.Buffer
	k.Spawn("rank0", func(p *sim.Proc) {
		for i, n := range sizes {
			if err := comms[0].Send(p, pattern(n, byte(i+1)), 1, i+1); err != nil {
				t.Error(err)
			}
		}
		// Self-send: loopback delivery, unexpected path first.
		if err := comms[0].Send(p, pattern(64, 0xEE), 0, 7); err != nil {
			t.Error(err)
		}
		b := make([]byte, 64)
		st, err := comms[0].Recv(p, b, 0, 7)
		if err != nil {
			t.Error(err)
			return
		}
		rank0Got.Write(b[:st.Len])
	})
	k.Spawn("rank1", func(p *sim.Proc) {
		for i, n := range sizes {
			b := make([]byte, n)
			st, err := comms[1].Recv(p, b, 0, i+1)
			if err != nil {
				t.Error(err)
				return
			}
			rank1Got.Write(b[:st.Len])
		}
	})
	return func() []byte { return append(rank0Got.Bytes(), rank1Got.Bytes()...) }
}

func sockScenario(t *testing.T, k *sim.Kernel, eps []*xport.Endpoint) func() []byte {
	sp := xport.Spaces(eps, sockfm.Service)
	stacks := []*sockfm.Stack{sockfm.New(sp[0]), sockfm.New(sp[1])}
	var got bytes.Buffer
	k.Spawn("server", func(p *sim.Proc) {
		l, err := stacks[0].Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 777) // odd size: reads cross segment boundaries
		for {
			n, err := conn.Read(p, buf)
			got.Write(buf[:n])
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		conn, err := stacks[1].Dial(p, 0, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i, n := range []int{1, 512, 4000, 40000} {
			if _, err := conn.Write(p, pattern(n, byte(i+1))); err != nil {
				t.Error(err)
			}
		}
		conn.Close(p)
	})
	return func() []byte { return got.Bytes() }
}

func shmemScenario(t *testing.T, k *sim.Kernel, eps []*xport.Endpoint) func() []byte {
	sp := xport.Spaces(eps, shmem.Service)
	n0, n1 := shmem.Attach(sp[0]), shmem.Attach(sp[1])
	region := make([]byte, 4096)
	n1.Register(9, region)
	n0.Register(9, make([]byte, 4096))
	fetched := make([]byte, 1500)
	done := false
	k.Spawn("origin", func(p *sim.Proc) {
		if err := n0.Put(p, 1, 9, 100, pattern(2000, 3)); err != nil {
			t.Error(err)
		}
		if err := n0.Put(p, 1, 9, 2500, pattern(700, 5)); err != nil {
			t.Error(err)
		}
		n0.Quiet(p)
		if err := n0.Get(p, 1, 9, 600, fetched); err != nil {
			t.Error(err)
		}
		done = true
	})
	k.Spawn("target", func(p *sim.Proc) {
		for !done {
			n1.Progress(p)
			p.Delay(sim.Microsecond)
		}
	})
	return func() []byte { return append(append([]byte(nil), region...), fetched...) }
}

func garrScenario(t *testing.T, k *sim.Kernel, eps []*xport.Endpoint) func() []byte {
	const elems = 500
	arrays := make([]*garr.Array, len(eps))
	for i, sp := range xport.Spaces(eps, garr.Service) {
		a, err := garr.Attach(sp, 1, elems, len(eps))
		if err != nil {
			t.Fatal(err)
		}
		arrays[i] = a
	}
	out := make([]float64, elems)
	done := false
	k.Spawn("rank0", func(p *sim.Proc) {
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(i)*1.5 - 7
		}
		// The whole-array Put and Get both span every owner rank.
		if err := arrays[0].Put(p, 0, vals); err != nil {
			t.Error(err)
		}
		if err := arrays[0].Get(p, 0, out); err != nil {
			t.Error(err)
		}
		done = true
	})
	for r := 1; r < len(eps); r++ {
		r := r
		k.Spawn("serve", func(p *sim.Proc) {
			for !done {
				arrays[r].Progress(p)
				p.Delay(sim.Microsecond)
			}
		})
	}
	return func() []byte {
		var buf bytes.Buffer
		for _, v := range out {
			bits := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				buf.WriteByte(byte(bits >> s))
			}
		}
		return buf.Bytes()
	}
}

// TestCrossBindingConformance is the conformance matrix: for every upper
// layer, both bindings must deliver byte-identical results, and each cell
// must complete at an identical virtual time across repeated runs.
func TestCrossBindingConformance(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			digests := map[string][]byte{}
			for _, bc := range bindingCases {
				var ends []sim.Time
				var runs [][]byte
				for i := 0; i < 2; i++ {
					k := sim.NewKernel()
					cfg := cluster.DefaultConfig()
					cfg.Nodes = sc.nodes
					pl := cluster.New(k, cfg)
					finalize := sc.run(t, k, bc.attach(pl))
					if err := k.Run(); err != nil {
						t.Fatalf("%s/%s: %v", sc.name, bc.name, err)
					}
					ends = append(ends, k.Now())
					runs = append(runs, finalize())
				}
				if ends[0] != ends[1] {
					t.Errorf("%s/%s nondeterministic: run times %v vs %v", sc.name, bc.name, ends[0], ends[1])
				}
				if !bytes.Equal(runs[0], runs[1]) {
					t.Errorf("%s/%s nondeterministic: delivered bytes differ between runs", sc.name, bc.name)
				}
				if len(runs[0]) == 0 {
					t.Fatalf("%s/%s delivered no bytes", sc.name, bc.name)
				}
				digests[bc.name] = runs[0]
			}
			if !bytes.Equal(digests["fm1"], digests["fm2"]) {
				t.Errorf("%s delivers different bytes over fm1 and fm2", sc.name)
			}
		})
	}
}

// TestLoopbackAcrossBindings pins the loopback satellite at the transport
// level: a self-send on either binding delivers identical bytes to the
// local handler without an attached peer extracting anything.
func TestLoopbackAcrossBindings(t *testing.T) {
	for _, bc := range bindingCases {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			k := sim.NewKernel()
			pl := cluster.New(k, cluster.DefaultConfig())
			self := bc.attach(pl)[0].Register("self")
			var got []byte
			self.Register(4, func(p *sim.Proc, s xport.RecvStream) {
				buf := make([]byte, s.Length())
				s.Receive(p, buf)
				got = buf
			})
			want := pattern(3000, 9)
			k.Spawn("self", func(p *sim.Proc) {
				if err := xport.SendGather(p, self, 0, 4, want[:11], want[11:]); err != nil {
					t.Error(err)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("loopback bytes corrupted")
			}
		})
	}
}

// TestPacketsCountsWhatEitherEngineSends: flowctl.EndpointCore.Packets(n)
// is the number of data packets each generation sends for an n-byte
// message, at the edges of one packet.
func TestPacketsCountsWhatEitherEngineSends(t *testing.T) {
	for _, bc := range bindingCases {
		t.Run(bc.name, func(t *testing.T) {
			var got []int
			for i := range 4 {
				k := sim.NewKernel()
				src := bc.attach(cluster.New(k, bc.gen.Machine().Config(2, cluster.SingleSwitch)))[0].Register("src")
				core := src.Core()
				n := []int{0, 1, core.MTU(), core.MTU() + 1}[i]
				k.Spawn("sender", func(p *sim.Proc) {
					if err := xport.SendGather(p, src, 1, 4, make([]byte, n)); err != nil {
						t.Error(err)
					}
				})
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if sent := core.Stats().PacketsSent; sent != int64(core.Packets(n)) {
					t.Errorf("%d bytes: sent %d packets, Packets says %d", n, sent, core.Packets(n))
				}
				got = append(got, core.Packets(n))
			}
			if !slices.Equal(got, []int{1, 1, 1, 2}) {
				t.Errorf("Packets(0, 1, MTU, MTU+1) = %v, want [1 1 1 2]", got)
			}
		})
	}
}

// TestForgedDataFramesAcrossBindings: every structurally bad data frame, on
// either generation's layout, counts one Malformed, goes back to its sender's
// pool, runs no handler, returns no credit and leaves the ring empty — and
// the endpoint still delivers a valid message afterwards. The frames come
// from a peer's NIC out of a private pool, first-fragment flag set: the shape
// that would open a reassembly (FM 1.x) or a stream (FM 2.x) if trusted.
func TestForgedDataFramesAcrossBindings(t *testing.T) {
	layouts := map[xport.Gen]struct{ hdr, handler, frag, total int }{
		xport.GenFM1: {12, 4, 6, 8},
		xport.GenFM2: {16, 6, 8, 10},
	}
	for _, bc := range bindingCases {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			k := sim.NewKernel()
			cfg := cluster.DefaultConfig()
			cfg.Nodes = 3
			pl := cluster.New(k, cfg)
			spaces := xport.Spaces(bc.attach(pl), "svc")
			victim, core := spaces[0], spaces[0].Core()
			var got [][]byte
			ran := 0
			victim.Register(1, func(p *sim.Proc, s xport.RecvStream) {
				ran++
				buf := make([]byte, s.Length())
				s.Receive(p, buf)
				got = append(got, buf)
			})
			l := layouts[bc.gen]
			data := func(length int, typ byte, src, frag, total int) []byte {
				f := make([]byte, length)
				f[0], f[1] = typ, 1
				binary.LittleEndian.PutUint16(f[2:], uint16(src))
				if length >= l.hdr {
					binary.LittleEndian.PutUint16(f[l.handler:], 1)
					binary.LittleEndian.PutUint16(f[l.frag:], uint16(frag))
					binary.LittleEndian.PutUint32(f[l.total:], uint32(total))
				}
				return f
			}
			forged := []struct {
				name  string
				frame []byte
			}{
				{"short", data(l.hdr-1, 1, 1, 0, 0)},
				{"wrong type", data(l.hdr+8, 2, 1, 8, 16)},
				{"src is self", data(l.hdr+8, 1, 0, 8, 16)},
				{"src out of range", data(l.hdr+8, 1, 3, 8, 16)},
				{"fragment past end of frame", data(l.hdr+8, 1, 1, 9, 16)},
				{"total over MaxMessage", data(l.hdr+8, 1, 1, 8, core.MaxMessage()+1)},
			}
			forge := netsim.NewFramePool(l.hdr+8, 0)
			k.Spawn("driver", func(p *sim.Proc) {
				for i, f := range forged {
					pkt := forge.Get(len(f.frame))
					copy(pkt.Payload, f.frame)
					pl.NICs[1].HostSendPacket(p, pkt, 0, false)
					p.Delay(100 * sim.Microsecond)
					victim.Extract(p, 0)
					if m := core.Stats().Malformed; m != int64(i+1) {
						t.Errorf("%s: Malformed = %d, want %d", f.name, m, i+1)
					}
					if r := forge.Stats().Releases; r != int64(i+1) {
						t.Errorf("%s: frame not released to its sender's pool (%d releases)", f.name, r)
					}
					if ran != 0 {
						t.Errorf("%s: a handler ran", f.name)
					}
					if c := core.FlowControl().CreditsSent; c != 0 {
						t.Errorf("%s: returned %d credits for a frame whose source cannot be trusted", f.name, c)
					}
					if d := pl.NICs[0].RingLen(); d != 0 {
						t.Errorf("%s: %d packets left in the ring", f.name, d)
					}
				}
				want := pattern(300, 5)
				if err := xport.SendGather(p, spaces[1], 0, 1, want); err != nil {
					t.Error(err)
				}
				p.Delay(100 * sim.Microsecond)
				victim.Extract(p, 0)
				if len(got) != 1 || !bytes.Equal(got[0], want) {
					t.Errorf("valid message after the forgeries: delivered %d messages", len(got))
				}
				if st := core.Stats(); st.MsgsRecvd != 1 || st.Malformed != int64(len(forged)) {
					t.Errorf("valid message miscounted: %+v", st)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHandlerTableAcrossSlabs: a node's handlers are one engine table keyed
// by wire id, on either binding. Four services' handlers, 16 ids in four
// slabs SpaceSize apart, grow the table past its first 8 slots; one message
// to each id runs its handler exactly once with its bytes, a message to an
// id no service registered in the grown table counts one UnknownHandler and
// is discarded whole, and a duplicate registered after the growth panics.
func TestHandlerTableAcrossSlabs(t *testing.T) {
	locals := []xport.HandlerID{0, 1, 9, xport.SpaceSize - 1}
	const unknown = 7 // in no service's set above
	for _, bc := range bindingCases {
		t.Run(bc.name, func(t *testing.T) {
			k := sim.NewKernel()
			pl := cluster.New(k, bc.gen.Machine().Config(2, cluster.SingleSwitch))
			eps := bc.attach(pl)
			var services [][]*xport.HandlerSpace
			for _, name := range []string{"s0", "s1", "s2", "s3"} {
				services = append(services, xport.Spaces(eps, name))
			}
			msg := func(svc, i int) []byte { j := svc*len(locals) + i; return pattern(1+400*j, byte(j)) }
			runs := make([][]int, len(services))
			for svc, sp := range services {
				runs[svc] = make([]int, len(locals))
				for i, id := range locals {
					sp[1].Register(id, func(p *sim.Proc, s xport.RecvStream) {
						runs[svc][i]++
						buf := make([]byte, s.Length())
						if want := msg(svc, i); s.Receive(p, buf) != len(want) || !bytes.Equal(buf, want) {
							t.Errorf("s%d handler %d: got %d bytes, want %d of its pattern", svc, id, len(buf), len(want))
						}
					})
				}
			}
			lost := 3 * services[0][1].Core().MTU()
			sent := 0
			k.Spawn("sender", func(p *sim.Proc) {
				if err := xport.SendGather(p, services[2][0], 1, unknown, make([]byte, lost)); err != nil {
					t.Error(err)
				}
				for svc, sp := range services {
					for i, id := range locals {
						m := msg(svc, i)
						if err := xport.SendGather(p, sp[0], 1, id, m); err != nil {
							t.Error(err)
						}
						sent += len(m)
					}
				}
			})
			k.Spawn("receiver", func(p *sim.Proc) { // a lost message fails below, not hangs
				for services[0][1].Core().Stats().MsgsRecvd < int64(len(services)*len(locals)) && p.Now() < 10*sim.Millisecond {
					eps[1].Extract(p, 0)
					p.Delay(sim.Microsecond)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			got := 0
			for svc, sp := range services {
				for i, n := range runs[svc] {
					if n != 1 {
						t.Errorf("s%d handler %d ran %d times, want once", svc, locals[i], n)
					}
				}
				got += int(sp[1].Stats().Bytes)
			}
			st := services[0][1].Core().Stats()
			if st.UnknownHandler != 1 || got != sent || st.BytesRecvd != int64(sent) {
				t.Errorf("unknown id: UnknownHandler = %d, services consumed %d B and the engine received %d B, want 1, %d, %d",
					st.UnknownHandler, got, st.BytesRecvd, sent, sent)
			}
			defer func() {
				if recover() == nil {
					t.Error("a duplicate registered in the grown table did not panic")
				}
			}()
			services[3][1].Register(locals[2], func(*sim.Proc, xport.RecvStream) {})
		})
	}
}
