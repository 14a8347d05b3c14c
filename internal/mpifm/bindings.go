package mpifm

import (
	"repro/internal/bufpool"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Service is the canonical endpoint-service name the MPI layer registers
// under on a shared per-node endpoint.
const Service = "mpi"

// mpiHandlerID is the service-local handler slot MPI-FM claims within its
// HandlerSpace slab.
const mpiHandlerID = 1

// Options selects which streaming-transport services the MPI device uses.
// The ablation benches turn services off one at a time to price each of the
// paper's API additions. The zero value is the full MPI-FM 2.0 device.
type Options struct {
	// Unpaced makes progress drain everything (no receiver flow control).
	Unpaced bool
	// NoGather forces FM 1.x-style contiguous assembly before sending.
	NoGather bool
}

// Attach builds the MPI layer over one HandlerSpace per rank. Each space is a service window onto its node's shared
// endpoint, so MPI co-resides with sockets, shmem, and global arrays on one
// transport, one handler table, and one set of credit windows per node.
func Attach(spaces []*xport.HandlerSpace, ov Overheads, opt Options) []*Comm {
	comms := make([]*Comm, len(spaces))
	for i, sp := range spaces {
		c := &Comm{rank: i, size: len(spaces), host: sp.Host(), t: sp, opt: opt, ov: ov,
			tmpPool: bufpool.New(0)}
		sp.Register(mpiHandlerID, c.handler)
		comms[i] = c
	}
	return comms
}

// send transmits header and payload as one transport message. The default
// path gathers them straight into the stream — no assembly copy over FM
// 2.x, while the FM 1.x adapter charges its own staging copies (paper
// §3.2). With NoGather the MPI device itself assembles a contiguous buffer
// first, re-creating the 1.x send-side copy over any transport for the
// ablation bench.
func (c *Comm) send(p *sim.Proc, dst int, hdr, payload []byte) error {
	if c.opt.NoGather {
		msg := make([]byte, len(hdr)+len(payload))
		copy(msg, hdr)
		copy(msg[len(hdr):], payload)
		c.host.Memcpy(p, len(msg))
		return xport.SendGather(p, c.t, dst, mpiHandlerID, msg)
	}
	return xport.SendGather(p, c.t, dst, mpiHandlerID, hdr, payload)
}

// handler is the paper's canonical streaming receive pattern: pull the
// header, match, then scatter the payload directly into the buffer the
// match chose. Over FM 2.x this is the zero-staging-copy path of layer
// interleaving; over FM 1.x the same code runs against the staged message,
// paying the delivery copy the 1.x interface forces.
func (c *Comm) handler(p *sim.Proc, s xport.RecvStream) {
	srcRank, tag, n := decodeHeader(xport.ReceiveHeader(p, s, HeaderSize))
	if n < 0 || n > s.Remaining() {
		// The header promises a payload the message does not carry: nothing
		// in it can be trusted to size a buffer or a slice.
		s.ReceiveDiscard(p, s.Remaining())
		return
	}
	if req := c.takePosted(srcRank, tag); req != nil {
		m := n
		if m > len(req.buf) {
			m = len(req.buf)
		}
		s.Receive(p, req.buf[:m]) // stream -> user buffer
		if m < n {
			s.ReceiveDiscard(p, n-m)
		}
		p.Delay(c.ov.Recv)
		c.complete(req, srcRank, tag, m)
		c.stats.Direct++
		return
	}
	p.Delay(c.ov.Unexpected)
	// The arrival commits to the unexpected path here, before its payload
	// has streamed in: the counter marks the commitment, and a receive
	// posted while the rest of the message arrives is completed by
	// enqueueUnexpected below.
	c.stats.Unexpected++
	buf := c.tmpPool.Get(n) // back to the pool once completeFromPool copies it out
	s.Receive(p, buf)
	c.enqueueUnexpected(p, srcRank, tag, buf)
}

// maxPayload reports the largest payload a single message may carry.
func (c *Comm) maxPayload() int { return c.t.MaxMessage() - HeaderSize }
