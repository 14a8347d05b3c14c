// Package mpifm implements the MPI-FM point-to-point layer of the paper: an
// MPI subset (blocking sends and receives and nonblocking receives with
// source/tag matching, unexpected-message queueing, barrier) plus
// collectives, layered over the unified streaming transport contract
// (internal/xport) with one code path for every binding:
//
//   - Over FM 1.x (xport.GenFM1): the original MPI-FM. The staging
//     adapter charges the assembly copy on send (header + payload into one
//     buffer) and the delivery copy out of FM's staging on receive, and —
//     because FM_extract cannot be paced — arrivals often take the
//     unexpected-message pool, costing further copies. This is the
//     configuration of Figure 4.
//
//   - Over FM 2.x (xport.GenFM2): MPI-FM 2.0. Gather sends the 24-byte
//     MPI header (paper §5: "the minimum length of the header added by the
//     MPI code is 24 bytes") and payload with no assembly copy; the receive
//     handler reads the header, matches a posted receive, and scatters the
//     payload directly into the user buffer; Extract's byte budget paces
//     extraction to the posted receive so messages rarely take the
//     unexpected path. This is the configuration of Figure 6.
//
// A rank may send to itself: the transports model self-sends as host-memcpy
// loopback that never touches the NIC.
//
// Like FM itself, a Comm is single-threaded: one Proc per rank.
package mpifm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/hostmodel"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// HeaderSize is the MPI-FM message header: 6 words.
const HeaderSize = 24

// Header layout: srcRank(4) tag(4) context(4) payloadLen(4) seq(4)
// reserved(4, zero).

// Status reports the outcome of a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// Request is a nonblocking receive's handle.
type Request struct {
	c    *Comm
	buf  []byte
	src  int // match criterion
	tag  int // match criterion
	done bool
	st   Status
}

// Done reports completion (progress is made by Wait/Recv loops). It is the
// condition Wait blocks on.
func (r *Request) Done() bool { return r.done }

// Status returns the completion status; valid once Done.
func (r *Request) Status() Status { return r.st }

type inMsg struct {
	src, tag int
	data     []byte
}

// Stats counts MPI-layer activity; Direct vs Unexpected is the copy-count
// story of Figures 4 and 6.
type Stats struct {
	Sent   int64
	Recvd  int64
	Direct int64 // payload landed straight in the user buffer
	// Unexpected counts arrivals that committed to the unexpected path —
	// their header matched no posted receive. It includes messages later
	// handed to a receive posted while they were still streaming in; only
	// those actually queued appear in UnexpectedHWM.
	Unexpected int64

	// UnexpectedHWM is the unexpected queue's high-water mark: the deepest
	// the pool ever got. Unmatched traffic grows the pool without bound
	// (the historical MPICH pool behavior); the HWM makes that pressure
	// observable.
	UnexpectedHWM int
}

// Comm is one rank's communicator (MPI_COMM_WORLD). It binds to a
// HandlerSpace — a service window onto its node's shared endpoint — never
// to a whole transport, so MPI can co-reside with other services.
type Comm struct {
	rank, size int
	host       *hostmodel.Host
	t          *xport.HandlerSpace
	opt        Options
	ov         Overheads
	seq        int32

	posted     []*Request
	unexpected []inMsg
	barrierSeq int

	collAlgo CollectiveAlgo
	collSeq  uint32

	// Send-path scratch: a Comm is single-threaded and its receive handler
	// never sends, so one header buffer (gathered into the transport before
	// Send returns) and one barrier token pair serve every message without
	// per-call allocation.
	hdrScratch   [HeaderSize]byte
	barrierOne   [1]byte
	barrierToken [1]byte

	// reqPool recycles Request records for the blocking Recv path and the
	// collective legs, where the request provably dies before the call
	// returns. Irecv requests are caller-held and stay heap-allocated.
	reqPool bufpool.Recycler[*Request]
	// gatherReqs is Gather's list of pre-posted receives, kept for its
	// backing array.
	gatherReqs []*Request
	// tmpPool recycles the collective algorithms' combine/staging scratch and
	// the unexpected path's message buffers.
	tmpPool *bufpool.Pool

	stats Stats
}

// getReq draws a recycled Request for an operation that completes within
// one call.
func (c *Comm) getReq() *Request {
	if r, ok := c.reqPool.Get(); ok {
		return r
	}
	return &Request{c: c}
}

// putReq recycles an internally-owned Request. One that never completed —
// its operation failed after posting it — is withdrawn from the posted list
// first, so no later message lands in a buffer its caller has given up, and
// the record is not reused while still posted.
func (c *Comm) putReq(r *Request) {
	if !r.done {
		for i, q := range c.posted {
			if q == r {
				c.posted = append(c.posted[:i], c.posted[i+1:]...)
				break
			}
		}
	}
	r.buf = nil
	r.done = false
	r.st = Status{}
	c.reqPool.Put(r, nil)
}

// Rank reports this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size reports the communicator size.
func (c *Comm) Size() int { return c.size }

// Stats returns a copy of the counters.
func (c *Comm) Stats() Stats { return c.stats }

// Host exposes the host model (examples charge compute time through it).
func (c *Comm) Host() *hostmodel.Host { return c.host }

// encodeHeader fills the Comm's header scratch; the slice is valid until
// the next encodeHeader call (the transport gathers it synchronously).
func (c *Comm) encodeHeader(tag int, n int) []byte {
	h := c.hdrScratch[:]
	binary.LittleEndian.PutUint32(h[0:], uint32(int32(c.rank)))
	binary.LittleEndian.PutUint32(h[4:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(h[8:], 0) // context: COMM_WORLD
	binary.LittleEndian.PutUint32(h[12:], uint32(int32(n)))
	c.seq++
	binary.LittleEndian.PutUint32(h[16:], uint32(c.seq))
	return h
}

func decodeHeader(h []byte) (src, tag, n int) {
	src = int(int32(binary.LittleEndian.Uint32(h[0:])))
	tag = int(int32(binary.LittleEndian.Uint32(h[4:])))
	n = int(int32(binary.LittleEndian.Uint32(h[12:])))
	return
}

// Send transmits buf to rank dst with the given tag (eager protocol: it
// returns when the buffer is reusable, which for FM means when the message
// has been handed to the NIC under flow control). dst may be the sending
// rank itself: the message takes the transport's loopback path and is
// matched against this rank's posted or unexpected queues like any other.
func (c *Comm) Send(p *sim.Proc, buf []byte, dst, tag int) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("mpifm: bad rank %d", dst)
	}
	if len(buf) > c.maxPayload() {
		return fmt.Errorf("mpifm: message of %d bytes exceeds transport limit %d",
			len(buf), c.maxPayload())
	}
	if tag < 0 {
		return fmt.Errorf("mpifm: negative tag %d", tag)
	}
	p.Delay(c.ov.Send)
	hdr := c.encodeHeader(tag, len(buf))
	if err := c.send(p, dst, hdr, buf); err != nil {
		return err
	}
	c.stats.Sent++
	return nil
}

// Irecv posts a receive for (src, tag) into buf and returns its Request.
// src may be AnySource and tag AnyTag.
func (c *Comm) Irecv(p *sim.Proc, buf []byte, src, tag int) (*Request, error) {
	if src != AnySource && (src < 0 || src >= c.size) {
		return nil, fmt.Errorf("mpifm: bad source %d", src)
	}
	req := &Request{c: c}
	c.post(p, req, buf, src, tag)
	return req, nil
}

// post arms req for (src, tag) into buf: completed immediately from the
// unexpected pool, or queued on the posted list.
func (c *Comm) post(p *sim.Proc, req *Request, buf []byte, src, tag int) {
	req.buf, req.src, req.tag = buf, src, tag
	// An already-buffered unexpected message wins first.
	if m, ok := c.takeUnexpected(src, tag); ok {
		c.completeFromPool(p, req, m)
		return
	}
	c.posted = append(c.posted, req)
}

// Wait blocks (in virtual time) until req completes, driving progress: the
// rank polls FM_extract until the handler completes req. Every blocking
// call of the layer — Recv, Sendrecv, Barrier, the collectives — waits here.
func (c *Comm) Wait(p *sim.Proc, req *Request) Status {
	c.t.Wait(p, c.progressLimit(), req)
	return req.st
}

// Waitall drives progress until every request completes.
func (c *Comm) Waitall(p *sim.Proc, reqs []*Request) {
	for _, r := range reqs {
		c.Wait(p, r)
	}
}

// Recv blocks until a matching message lands in buf. The request record it
// runs on is pool-recycled: a blocking receive's request dies here, unlike
// an Irecv's, which the caller holds.
func (c *Comm) Recv(p *sim.Proc, buf []byte, src, tag int) (Status, error) {
	if src != AnySource && (src < 0 || src >= c.size) {
		return Status{}, fmt.Errorf("mpifm: bad source %d", src)
	}
	req := c.getReq()
	c.post(p, req, buf, src, tag)
	st := c.Wait(p, req)
	c.putReq(req)
	return st, nil
}

// progressLimit is the Extract byte budget while any receive is pending:
// one byte, which FM rounds up to exactly one packet. The budget is the
// same whichever request is being waited on — pacing is a property of the
// receiver, not of a particular message — so it takes no arguments.
// Packet-at-a-time pacing stops extraction the moment the posted message
// completes, so no data for a not-yet-posted receive is pulled out of FM
// and forced through the buffer pool — the receiver-flow-control
// discipline of paper §4.1. Options.Unpaced turns it off (no limit), and
// transports without pacing (FM 1.x) ignore it.
func (c *Comm) progressLimit() int {
	if c.opt.Unpaced {
		return 0
	}
	return 1
}

// takePosted removes and returns the first posted receive matching
// (src, tag), or nil. FIFO order among equal matches preserves MPI's
// non-overtaking guarantee.
func (c *Comm) takePosted(src, tag int) *Request {
	for i, r := range c.posted {
		if (r.src == AnySource || r.src == src) && (r.tag == AnyTag || r.tag == tag) {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// takeUnexpected removes and returns the first buffered message matching
// (src, tag); ok is false when there is none.
func (c *Comm) takeUnexpected(src, tag int) (m inMsg, ok bool) {
	for i := range c.unexpected {
		u := &c.unexpected[i]
		if (src == AnySource || u.src == src) && (tag == AnyTag || u.tag == tag) {
			m = *u // before the append below slides the tail over it
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			return m, true
		}
	}
	return inMsg{}, false
}

// enqueueUnexpected files a fully-buffered unexpected message. A matching
// receive may have been posted while the message was still streaming in
// (after its header was matched against an empty posted queue); it must be
// completed now, or it would wait forever for a message that has already
// arrived. Per-sender FIFO delivery guarantees the earliest matching posted
// receive gets the earliest message, preserving MPI non-overtaking.
func (c *Comm) enqueueUnexpected(p *sim.Proc, src, tag int, data []byte) {
	if req := c.takePosted(src, tag); req != nil {
		c.completeFromPool(p, req, inMsg{src: src, tag: tag, data: data})
		return
	}
	c.unexpected = append(c.unexpected, inMsg{src: src, tag: tag, data: data})
	if n := len(c.unexpected); n > c.stats.UnexpectedHWM {
		c.stats.UnexpectedHWM = n
	}
}

// completeFromPool finishes a receive from the unexpected queue: the extra
// pool-to-user copy of the unexpected path. The buffer the handler drew from
// tmpPool goes back once copied out.
func (c *Comm) completeFromPool(p *sim.Proc, req *Request, m inMsg) {
	n := copy(req.buf, m.data)
	c.tmpPool.Put(m.data)
	c.host.Memcpy(p, n)
	p.Delay(c.ov.Recv)
	req.done = true
	req.st = Status{Source: m.src, Tag: m.tag, Len: n}
	c.stats.Recvd++
}

// complete finishes a posted receive whose data already landed in buf.
func (c *Comm) complete(req *Request, src, tag, n int) {
	req.done = true
	req.st = Status{Source: src, Tag: tag, Len: n}
	c.stats.Recvd++
}

// Barrier synchronizes all ranks with a dissemination barrier (Hensgen,
// Finkel and Manber, "Two algorithms for barrier synchronization", IJPP
// 1988): in round k = 0 … ⌈log₂ N⌉−1 each rank sends a 1-byte token to
// rank+2ᵏ and receives one from rank−2ᵏ (mod N). A rank leaves after the
// last round, by which time every rank's entry has reached it, so a barrier
// costs ⌈log₂ N⌉ one-way token trips and each rank sends ⌈log₂ N⌉ messages.
// Every round uses the barrier's one reserved tag: a round's source differs
// from every other round's.
func (c *Comm) Barrier(p *sim.Proc) error {
	c.barrierSeq++
	tag := 1<<20 + c.barrierSeq // reserved tag space
	c.barrierOne[0] = 1
	for d := 1; d < c.size; d <<= 1 {
		if err := c.Send(p, c.barrierOne[:], (c.rank+d)%c.size, tag); err != nil {
			return err
		}
		if _, err := c.Recv(p, c.barrierToken[:], (c.rank-d+c.size)%c.size, tag); err != nil {
			return err
		}
	}
	return nil
}
