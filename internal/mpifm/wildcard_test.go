// Wildcard-matching coverage: AnySource/AnyTag must preserve FIFO order
// through both matching paths — takePosted (arrival finds a posted
// receive) and takeUnexpected (receive finds a buffered message) — and
// through the race where a receive is posted while its message is still
// streaming in. Plus the bounded unexpected-pool satellite: high-water
// mark and drop-with-stat overflow.
package mpifm

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestWildcardPostedFIFO: several AnySource/AnyTag receives posted before
// any arrival must complete in post order against arrival order — the
// first posted wildcard gets the first message (MPI non-overtaking through
// takePosted).
func TestWildcardPostedFIFO(t *testing.T) {
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		const n = 5
		k.Spawn("rank1", func(p *sim.Proc) {
			bufs := make([][]byte, n)
			reqs := make([]*Request, n)
			for i := 0; i < n; i++ {
				bufs[i] = make([]byte, 1)
				r, err := comms[1].Irecv(p, bufs[i], AnySource, AnyTag)
				if err != nil {
					t.Error(err)
					return
				}
				reqs[i] = r
			}
			comms[1].Waitall(p, reqs)
			for i := 0; i < n; i++ {
				// Message i carries payload i and tag 10+i: the i-th posted
				// wildcard must have matched the i-th arrival.
				if bufs[i][0] != byte(i) || reqs[i].Status().Tag != 10+i {
					t.Errorf("posted wildcard %d got payload %d tag %d",
						i, bufs[i][0], reqs[i].Status().Tag)
				}
			}
		})
		k.Spawn("rank0", func(p *sim.Proc) {
			p.Delay(300 * sim.Microsecond) // receives post first
			for i := 0; i < n; i++ {
				if err := comms[0].Send(p, []byte{byte(i)}, 1, 10+i); err != nil {
					t.Error(err)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWildcardUnexpectedFIFO: messages buffered in the unexpected pool
// must be handed to AnySource/AnyTag receives in arrival order
// (takeUnexpected FIFO), and a source-specific wildcard must take the
// earliest message from that source even when an earlier message from
// another source waits ahead of it.
func TestWildcardUnexpectedFIFO(t *testing.T) {
	bothWorlds(t, 3, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		k.Spawn("rank1", func(p *sim.Proc) {
			if err := comms[1].Send(p, []byte{11}, 0, 4); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rank2", func(p *sim.Proc) {
			p.Delay(200 * sim.Microsecond) // strictly after rank1's message
			for _, v := range []byte{21, 22} {
				if err := comms[2].Send(p, []byte{v}, 0, 9); err != nil {
					t.Error(err)
				}
			}
		})
		k.Spawn("rank0", func(p *sim.Proc) {
			// Buffer all three messages unexpectedly first.
			for comms[0].Stats().Unexpected < 3 {
				comms[0].t.Extract(p, 0)
				p.Delay(10 * sim.Microsecond)
			}
			var b [1]byte
			// Source-specific wildcard: earliest from rank2, not rank1's
			// earlier arrival.
			st, err := comms[0].Recv(p, b[:], 2, AnyTag)
			if err != nil || st.Source != 2 || b[0] != 21 {
				t.Errorf("source wildcard got %d from %d (err %v)", b[0], st.Source, err)
			}
			// Full wildcard drains the rest in arrival order: rank1's then
			// rank2's second.
			st, err = comms[0].Recv(p, b[:], AnySource, AnyTag)
			if err != nil || st.Source != 1 || b[0] != 11 {
				t.Errorf("first full wildcard got %d from %d (err %v)", b[0], st.Source, err)
			}
			st, err = comms[0].Recv(p, b[:], AnySource, AnyTag)
			if err != nil || st.Source != 2 || b[0] != 22 {
				t.Errorf("second full wildcard got %d from %d (err %v)", b[0], st.Source, err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWildcardPostedWhileStreaming pins the race between posting and an
// in-flight message: the header already matched an EMPTY posted queue (the
// handler committed to the unexpected path and is buffering, packet by
// packet), and only then is a wildcard receive posted. enqueueUnexpected
// must hand the finished message to that receive — otherwise it would wait
// forever for a message that has already arrived.
func TestWildcardPostedWhileStreaming(t *testing.T) {
	k, comms := fm2World(2)
	payload := bytes.Repeat([]byte{0x7D}, 8192) // many packets
	k.Spawn("rank0", func(p *sim.Proc) {
		if err := comms[0].Send(p, payload, 1, 3); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rank1", func(p *sim.Proc) {
		c := comms[1]
		// Extract one packet at a time until the handler has committed to
		// the unexpected path (it is now parked mid-stream, buffering).
		for c.stats.Unexpected == 0 {
			c.t.Extract(p, 1)
			p.Delay(sim.Microsecond)
		}
		if c.stats.Recvd != 0 {
			t.Fatal("message completed before it could be mid-stream")
		}
		// Post the wildcard receive while the message is still streaming:
		// it must not match takeUnexpected (nothing is queued yet) …
		buf := make([]byte, len(payload))
		req, err := c.Irecv(p, buf, AnySource, AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		if req.Done() {
			t.Fatal("request completed against a still-streaming message")
		}
		// … and must be completed by enqueueUnexpected when the stream
		// finishes.
		st := c.Wait(p, req)
		if st.Source != 0 || st.Tag != 3 || st.Len != len(payload) {
			t.Errorf("status %+v", st)
		}
		if !bytes.Equal(buf, payload) {
			t.Error("payload corrupted through the mid-stream race")
		}
		if c.stats.Unexpected != 1 || c.stats.Recvd != 1 {
			t.Errorf("stats %+v, want one unexpected completion", c.stats)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestUnexpectedHWM: the unexpected pool records its high-water mark, keeps
// every arrival in order, and matched traffic flows normally behind it.
func TestUnexpectedHWM(t *testing.T) {
	const sent = 8
	k, comms := fm2World(2)
	k.Spawn("rank0", func(p *sim.Proc) {
		for i := 0; i < sent; i++ {
			if err := comms[0].Send(p, []byte{byte(i)}, 1, 100+i); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("rank1", func(p *sim.Proc) {
		c := comms[1]
		for c.stats.Unexpected < sent {
			c.t.Extract(p, 0)
			p.Delay(10 * sim.Microsecond)
		}
		if hwm := c.Stats().UnexpectedHWM; hwm != sent {
			t.Errorf("high-water mark %d, want %d", hwm, sent)
		}
		// Every message waited in the pool, in order.
		var b [1]byte
		for i := 0; i < sent; i++ {
			stt, err := c.Recv(p, b[:], AnySource, AnyTag)
			if err != nil || stt.Tag != 100+i || b[0] != byte(i) {
				t.Errorf("pooled message %d: tag %d payload %d (err %v)", i, stt.Tag, b[0], err)
			}
		}
		// Matched traffic still flows normally after the backlog.
		done := make([]byte, 4)
		req, err := c.Irecv(p, done, 0, 999)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(p, []byte("ok"), 0, 500); err != nil {
			t.Error(err)
		}
		c.Wait(p, req)
	})
	k.Spawn("rank0b", func(p *sim.Proc) {
		var b [2]byte
		if _, err := comms[0].Recv(p, b[:], 1, 500); err != nil {
			t.Error(err)
		}
		if err := comms[0].Send(p, []byte{1, 2, 3, 4}, 1, 999); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestUnexpectedHWMUnbounded: the pool grows with unmatched traffic and the
// HWM tracks its deepest point, on both transports.
func TestUnexpectedHWMUnbounded(t *testing.T) {
	bothWorlds(t, 2, func(t *testing.T, k *sim.Kernel, comms []*Comm) {
		const sent = 6
		k.Spawn("rank0", func(p *sim.Proc) {
			for i := 0; i < sent; i++ {
				if err := comms[0].Send(p, []byte{byte(i)}, 1, 50+i); err != nil {
					t.Error(err)
				}
			}
		})
		k.Spawn("rank1", func(p *sim.Proc) {
			c := comms[1]
			for c.Stats().Unexpected < sent {
				c.t.Extract(p, 0)
				p.Delay(10 * sim.Microsecond)
			}
			if hwm := c.Stats().UnexpectedHWM; hwm != sent {
				t.Errorf("high-water mark %d, want %d", hwm, sent)
			}
			var b [1]byte
			for i := 0; i < sent; i++ {
				if _, err := c.Recv(p, b[:], AnySource, AnyTag); err != nil {
					t.Error(err)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
