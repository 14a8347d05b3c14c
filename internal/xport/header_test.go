package xport_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/bufpool"
	"repro/internal/sim"
	"repro/internal/xport"
)

// TestHeaderScratchBelongsToOneHandlerRun: ReceiveHeader's slice lives in the
// handler run's own recycled stream wrapper, not in anything the service
// shares. Two senders' multi-packet messages interleave at one receiver, so
// two FM 2.x handler workers of one service pull their headers and park
// mid-payload at once; each must find its header intact when its blocking
// Receive returns. A handler that keeps the slice past its return reads the
// poison its wrapper was recycled with.
func TestHeaderScratchBelongsToOneHandlerRun(t *testing.T) {
	k := sim.NewKernel()
	pl := platform(k, 3)
	m := fm2Machine
	m.FM2.PoisonFrames = true
	eps := xport.AttachEndpoints(pl, m)
	sp := xport.Spaces(eps, "svc")
	const hdrLen, payload = xport.MaxHeader, 3000 // several packets at the 552 B MTU
	var retained [][]byte
	parked, peak := 0, 0
	sp[2].Register(1, func(p *sim.Proc, s xport.RecvStream) {
		h := xport.ReceiveHeader(p, s, hdrLen)
		want := bytes.Clone(h)
		parked++
		peak = max(peak, parked)
		body := make([]byte, s.Remaining())
		s.Receive(p, body)
		parked--
		if !bytes.Equal(h, want) {
			t.Errorf("header from node %d changed while its handler was parked: %x, was %x", s.Src(), h, want)
		}
		retained = append(retained, h)
	})
	for src := 0; src < 2; src++ {
		msg := bytes.Repeat([]byte{byte(0x10 + src)}, hdrLen+payload)
		k.Spawn("sender", func(p *sim.Proc) {
			if err := xport.Send(p, sp[src], 2, 1, msg); err != nil {
				t.Error(err)
			}
		})
	}
	k.Spawn("receiver", func(p *sim.Proc) {
		for len(retained) < 2 {
			sp[2].Extract(p, 0)
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("at most %d handler parked at once; the test needs two", peak)
	}
	for i, h := range retained {
		if !bytes.Equal(h, bytes.Repeat([]byte{bufpool.PoisonByte}, hdrLen)) {
			t.Errorf("header %d kept past its handler's return reads %x, want poison", i, h)
		}
	}
}

// TestHandlerDispatchZeroAlloc pins the service layer's per-message path over
// both bindings: after warm-up, messages gathered from a header and a payload,
// dispatched through a HandlerSpace to a handler that pulls its header with
// ReceiveHeader and its payload with Receive, allocate nothing.
func TestHandlerDispatchZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("alloc pins don't hold under the race detector's instrumentation")
	}
	const warm, msgs = 100, 300
	for _, g := range []xport.Gen{xport.GenFM2, xport.GenFM1} {
		t.Run(g.String(), func(t *testing.T) {
			k := sim.NewKernel()
			pl := platform(k, 2)
			sp := xport.Spaces(xport.AttachEndpoints(pl, g.Machine()), "svc")
			recvd := 0
			sink := make([]byte, 1024)
			sp[1].Register(1, func(p *sim.Proc, s xport.RecvStream) {
				xport.ReceiveHeader(p, s, xport.MaxHeader)
				s.Receive(p, sink)
				recvd++
			})
			var allocs uint64
			k.Spawn("sender", func(p *sim.Proc) {
				hdr, body := make([]byte, xport.MaxHeader), make([]byte, len(sink))
				send := func(n int) {
					for i := 0; i < n; i++ {
						if err := xport.SendGather(p, sp[0], 1, 1, hdr, body); err != nil {
							panic(err)
						}
					}
				}
				send(warm)
				allocs = alloctest.MinMallocs(func() { send(msgs) })
			})
			k.Spawn("receiver", func(p *sim.Proc) {
				for recvd < warm+alloctest.Windows*msgs {
					sp[1].Extract(p, 0)
					p.Delay(sim.Microsecond)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs > alloctest.AllowStray {
				t.Fatalf("%d messages allocated %d times; steady state must be 0/op", msgs, allocs)
			}
		})
	}
}

// TestReceiveHeaderBounds: a header shorter than asked for reads as zeros
// past the message's end, and asking for more than the scratch holds panics
// naming both sizes — there is no allocating fallback.
func TestReceiveHeaderBounds(t *testing.T) {
	k := sim.NewKernel()
	eps := endpoints(platform(k, 2))
	sp := xport.Spaces(eps, "svc")
	var short []byte
	var msg string
	sp[1].Register(1, func(p *sim.Proc, s xport.RecvStream) {
		short = bytes.Clone(xport.ReceiveHeader(p, s, 8))
	})
	sp[1].Register(2, func(p *sim.Proc, s xport.RecvStream) {
		defer func() { msg, _ = recover().(string) }()
		xport.ReceiveHeader(p, s, xport.MaxHeader+1)
	})
	k.Spawn("send", func(p *sim.Proc) {
		// The same wrapper serves both runs: a stale header would show.
		for _, m := range []struct {
			h    xport.HandlerID
			body string
		}{{1, "longer header"}, {1, "abc"}, {2, "x"}} {
			if err := xport.Send(p, sp[0], 1, m.h, []byte(m.body)); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		for msg == "" {
			sp[1].Extract(p, 0)
			p.Delay(sim.Microsecond)
		}
	})
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if want := []byte("abc\x00\x00\x00\x00\x00"); !bytes.Equal(short, want) {
		t.Errorf("3-byte message read as header %q, want %q", short, want)
	}
	if !strings.Contains(msg, "25") || !strings.Contains(msg, "24") {
		t.Errorf("oversized ReceiveHeader panicked with %q, want both sizes named", msg)
	}
}
