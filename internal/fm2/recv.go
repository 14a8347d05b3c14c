package fm2

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/flowctl"
	"repro/internal/netsim"
	"repro/internal/sim"
)

type streamState int

const (
	stateRunning streamState = iota // handler owns the CPU (or is scheduled)
	stateWaiting                    // handler parked in Receive, needs data
	stateDone                       // handler returned
)

// pendingChunk is one delivered, not-yet-consumed span of payload. The
// chunk's data aliases its owning frame; when the last byte is consumed the
// frame is released back to the SENDER's pool. Loopback chunks (pkt nil)
// alias the sender's staging buffer and need no release.
type pendingChunk struct {
	data []byte
	pkt  *netsim.Packet
}

// RecvStream is the receive side of one in-flight message: the stream
// handed to its handler. The handler pulls bytes with Receive; FM delivers
// packet payloads into the stream as Extract processes them. Stream records
// are recycled when the message retires, so handlers must not retain them
// (nor any payload alias) past their return — every release is poisoned,
// so a violation reads garbage.
type RecvStream struct {
	e      *Endpoint
	src    int
	msgid  uint16
	msglen int

	pending      sim.Queue[pendingChunk] // delivered, unconsumed chunks (alias frames)
	pendingBytes int
	consumed     int // bytes the handler has taken
	delivered    int // bytes FM has delivered into the stream
	sawLast      bool
	drop         bool // unknown handler: discard silently

	// Retirement bookkeeping: with co-resident services, several extractor
	// Procs can be parked in runStream on ONE stream (each delivered a
	// packet of it) and all wake when the handler finishes. runners counts
	// them; retired makes the completion bookkeeping exactly-once; the
	// record recycles only when the last runner has let go — otherwise a
	// stale pointer in a still-waking extractor would alias the next
	// message's stream.
	runners int
	retired bool

	state   streamState
	dataSig sim.Signal // handler parks here for more packets
	idleSig sim.Signal // extractor parks here while the handler runs
}

// getRecvStream draws a recycled stream record with the given identity.
func (e *Endpoint) getRecvStream(src int, msgid uint16, msglen int, st streamState) *RecvStream {
	rs, ok := e.rsPool.Get()
	if !ok {
		rs = &RecvStream{e: e}
	}
	rs.src = src
	rs.msgid = msgid
	rs.msglen = msglen
	rs.consumed = 0
	rs.delivered = 0
	rs.sawLast = false
	rs.drop = false
	rs.runners = 0
	rs.retired = false
	rs.state = st
	return rs
}

// putRecvStream recycles a retired stream record. Its pending queue is empty
// (retirement requires the handler done and the queue drained) and both
// signals have no waiters; the backing arrays are kept for reuse.
func (e *Endpoint) putRecvStream(rs *RecvStream) {
	e.rsPool.Put(rs, nil)
}

// Src reports the sending node.
func (s *RecvStream) Src() int { return s.src }

// Length reports the total message length from the first packet's header —
// available to the handler before any payload is consumed.
func (s *RecvStream) Length() int { return s.msglen }

// Remaining reports unconsumed message bytes.
func (s *RecvStream) Remaining() int { return s.msglen - s.consumed }

// popChunk retires the oldest pending chunk, releasing its frame.
func (s *RecvStream) popChunk() {
	if c := s.pending.Pop(); c.pkt != nil {
		c.pkt.Release()
	}
}

// Receive extracts up to len(buf) bytes of the message into buf, blocking
// (descheduling the handler) until they have arrived. It returns the number
// of bytes written: min(len(buf), Remaining()). The copy from the FM
// receive region into buf is the only data movement — with a destination
// chosen by the handler, this is the zero-staging-copy path that layer
// interleaving exists to enable. A fully-consumed packet's frame recycles
// to its sender's pool right here.
func (s *RecvStream) Receive(p *sim.Proc, buf []byte) int {
	want := len(buf)
	if r := s.msglen - s.consumed; want > r {
		want = r
	}
	got := 0
	for got < want {
		if s.pendingBytes == 0 {
			s.await(p)
			continue
		}
		chunk := s.pending.Front()
		n := copy(buf[got:], chunk.data)
		if n == len(chunk.data) {
			s.popChunk()
		} else {
			chunk.data = chunk.data[n:]
		}
		s.pendingBytes -= n
		s.e.Host().Memcpy(p, n)
		got += n
	}
	s.consumed += got
	return got
}

// ReceiveDiscard consumes and drops n bytes of the stream without charging
// a copy — modelling a handler that examines lengths only. Returns bytes
// actually skipped.
func (s *RecvStream) ReceiveDiscard(p *sim.Proc, n int) int {
	if r := s.msglen - s.consumed; n > r {
		n = r
	}
	skipped := 0
	for skipped < n {
		if s.pendingBytes == 0 {
			s.await(p)
			continue
		}
		chunk := s.pending.Front()
		take := len(chunk.data)
		if take > n-skipped {
			take = n - skipped
			chunk.data = chunk.data[take:]
		} else {
			s.popChunk()
		}
		s.pendingBytes -= take
		skipped += take
	}
	s.consumed += skipped
	return skipped
}

// await deschedules the handler until the next packet, handing the CPU back
// to Extract.
func (s *RecvStream) await(p *sim.Proc) {
	s.state = stateWaiting
	s.idleSig.Broadcast()
	p.WaitOn(s)
	s.dataSig.Wait(p)
}

// Describe names a stream wait for the hang report: the handler's wait for
// the rest of its message, or an extractor's for the handler to yield.
func (s *RecvStream) Describe() (string, int, []int) {
	if s.state == stateWaiting {
		return fmt.Sprintf("payload (%d of %d B delivered)", s.delivered, s.msglen), s.e.Node(), []int{s.src}
	}
	return fmt.Sprintf("handler of a message from n%d", s.src), s.e.Node(), nil
}

// deliver appends one packet's payload to the stream, taking ownership of
// the packet's frame (nil for loopback chunks). Frames that carry nothing
// the handler will read — empty payloads, or arrivals after the handler
// returned — release immediately.
func (s *RecvStream) deliver(pkt *netsim.Packet, payload []byte, last bool) {
	s.delivered += len(payload)
	if last {
		s.sawLast = true
	}
	if s.state == stateDone {
		// Handler already returned: FM discards the rest of the message.
		s.e.Count.DiscardedBytes += int64(len(payload))
		if pkt != nil {
			pkt.Release()
		}
		return
	}
	if len(payload) > 0 {
		*s.pending.Push() = pendingChunk{payload, pkt}
		s.pendingBytes += len(payload)
	} else if pkt != nil {
		pkt.Release()
	}
}

// finish runs the stream's end-of-handler bookkeeping: anything delivered
// but unconsumed is discarded and its frames recycle, then the extractor is
// handed the CPU back.
func (s *RecvStream) finish() {
	s.state = stateDone
	for s.pending.Len() > 0 {
		s.e.Count.DiscardedBytes += int64(len(s.pending.Front().data))
		s.popChunk()
	}
	s.pendingBytes = 0
	s.idleSig.Broadcast()
}

// complete reports whether the stream can be retired: all packets arrived
// and the handler finished.
func (s *RecvStream) complete() bool { return s.sawLast && s.state == stateDone }

// key builds the demux key for a (src, msgid) pair.
func key(src int, msgid uint16) uint32 { return uint32(src)<<16 | uint32(msgid) }

// hworker is a reusable handler coroutine. One worker services one message
// handler at a time; when the handler returns, the worker parks on its
// signal until the endpoint assigns it the next message. Assignment wakes
// it with exactly the event a fresh SpawnDaemon would have queued, so the
// virtual-time schedule is identical to spawning per message — minus the
// goroutine, Proc, and closure the spawn would have allocated.
type hworker struct {
	e   *Endpoint
	id  int // the endpoint's count of workers when this one was made
	sig sim.Signal
	fn  Handler
	rs  *RecvStream
}

// String names the worker's Proc: "fm2.n3.hw1".
func (w *hworker) String() string {
	return "fm2.n" + strconv.Itoa(w.e.Node()) + ".hw" + strconv.Itoa(w.id)
}

// startHandler schedules fn(rs) on a handler worker, reusing an idle one
// when possible.
func (e *Endpoint) startHandler(fn Handler, rs *RecvStream) {
	if n := len(e.idleWorkers); n > 0 {
		w := e.idleWorkers[n-1]
		e.idleWorkers[n-1] = nil
		e.idleWorkers = e.idleWorkers[:n-1]
		w.fn, w.rs = fn, rs
		w.sig.Signal()
		return
	}
	e.numWorkers++
	w := &hworker{e: e, id: e.numWorkers, fn: fn, rs: rs}
	p := e.Host().K.SpawnDaemon("", w.loop)
	p.NameBy(w)
	p.ActsFor(e.Node())
}

func (w *hworker) loop(hp *sim.Proc) {
	for {
		fn, rs := w.fn, w.rs
		w.fn, w.rs = nil, nil
		fn(hp, rs)
		rs.finish()
		w.e.idleWorkers = append(w.e.idleWorkers, w)
		w.sig.Wait(hp)
	}
}

// Extract services the network, processing at most maxBytes of payload
// (rounded up to the next packet boundary, as in the real API) — the
// receiver flow control knob. maxBytes <= 0 means no limit. It returns the
// number of messages completed during this call.
//
// As each packet is extracted, the packet's handler coroutine is scheduled
// and run until it either needs more data or finishes: the controlled
// interleaving of FM's and the application's threads of execution that the
// paper calls interlayer scheduling.
func (e *Endpoint) Extract(p *sim.Proc, maxBytes int) int { return e.ExtractWait(p, maxBytes, nil) }

// ExtractWait is Extract on behalf of a caller blocked on w.Until, whose
// empty poll repeats until there is something to extract or the wait is over
// (see flowctl.EndpointCore.Next). A nil w is Extract.
func (e *Endpoint) ExtractWait(p *sim.Proc, maxBytes int, w *flowctl.Waiter) int {
	completed := 0
	budget := maxBytes
	for first := true; maxBytes <= 0 || budget > 0; first = false {
		pkt := e.Next(p, w, first)
		if pkt == nil {
			break
		}
		// Budget accounting happens before processData: the frame may be
		// consumed and recycled (its Payload rebound) inside the call.
		pay := len(pkt.Payload) - headerSize
		if pay < 0 {
			pay = 0 // truncated garbage; processData discards it
		}
		completed += e.processData(p, pkt)
		e.Count.PacketsRecvd++
		budget -= pay
	}
	return completed
}

// processData demultiplexes one data frame into its stream and runs the
// stream's handler until it yields; it returns 1 when the message completed.
// Ownership of the frame passes to the stream's pending queue (released as
// the handler consumes it) or is released here for frames nothing will read.
func (e *Endpoint) processData(p *sim.Proc, pkt *netsim.Packet) int {
	d, ok := e.Open(pkt)
	if !ok {
		return 0
	}
	src, h, total, payload, last := d.Src, d.Handler, d.Total, d.Payload, d.Last
	msgid := binary.LittleEndian.Uint16(pkt.Payload[msgIDOff:])
	defer e.Credit.Return(p, src)

	k := key(src, msgid)
	rs := e.active[k]
	var fn Handler // set when this frame opens the message
	if rs == nil {
		if !d.First {
			// Continuation of a stream we never saw open: the message's
			// first frame was lost in flight (drop, CRC, outage). The
			// message is unrecoverable — FM has no retransmit — so the
			// frame is discarded; its ring credit still returns (the
			// deferred credit.Return), keeping the sender's window honest.
			e.Count.Orphaned++
			pkt.Release()
			return 0
		}
		reg := e.handlers.Find(int(h))
		if reg == nil {
			// Unknown handler: swallow the whole message via a pre-done
			// stream so continuation packets have somewhere to drain.
			e.Count.UnknownHandler++
			rs = e.getRecvStream(src, msgid, total, stateDone)
			rs.drop = true
			e.active[k] = rs
			rs.deliver(pkt, payload, last)
			return e.retireIfComplete(rs, k)
		}
		fn = *reg
		rs = e.getRecvStream(src, msgid, total, stateRunning)
		e.active[k] = rs
	}
	// A first frame delivers its payload BEFORE the dispatch delay: with
	// co-resident services, another extractor can process the message's next
	// packet while this Proc is parked in the HandlerDispatch charge, and
	// enqueueing ours afterwards would reorder the payload. deliver emits no
	// events and charges no time, so moving it ahead of the delay leaves the
	// virtual-time schedule untouched.
	rs.runners++
	rs.deliver(pkt, payload, last)
	if fn != nil {
		p.Delay(e.Host().P.HandlerDispatch)
		e.startHandler(fn, rs)
	}
	e.runStream(p, rs)
	rs.runners--
	return e.retireIfComplete(rs, k)
}

// retireIfComplete runs the message-completion bookkeeping exactly once per
// stream and recycles the record only after the LAST extractor referencing
// it has let go. With co-resident services, several extractor Procs can be
// parked in runStream on one stream and all wake when its handler finishes;
// without the retired/runners guards they would each count the message and
// double-insert the record into the pool — handing the same record to two
// future messages.
func (e *Endpoint) retireIfComplete(rs *RecvStream, k uint32) int {
	if !rs.complete() {
		return 0
	}
	ret := 0
	if !rs.retired {
		rs.retired = true
		delete(e.active, k)
		if !rs.drop {
			e.Count.MsgsRecvd++
			e.Count.BytesRecvd += int64(rs.delivered)
			ret = 1
		}
	}
	if rs.runners == 0 {
		e.putRecvStream(rs)
	}
	return ret
}

// deliverLoopback presents a self-send to its handler without touching the
// NIC: the receive half of the loopback path. The sending Proc plays the
// extractor's role, running the handler's logical thread to completion —
// every byte is already present, so the handler never parks for data.
func (e *Endpoint) deliverLoopback(p *sim.Proc, h flowctl.HandlerID, msgid uint16, data []byte) {
	reg := e.handlers.Find(int(h))
	if reg == nil {
		e.Count.UnknownHandler++
		e.Count.DiscardedBytes += int64(len(data))
		return
	}
	rs := e.getRecvStream(e.Node(), msgid, len(data), stateRunning)
	rs.deliver(nil, data, true)
	p.Delay(e.Host().P.HandlerDispatch)
	e.startHandler(*reg, rs)
	e.runStream(p, rs)
	e.Count.MsgsRecvd++
	e.Count.BytesRecvd += int64(rs.delivered)
	e.putRecvStream(rs)
}

// runStream hands the CPU to the stream's handler until it parks (needs
// more data) or returns. The extracting Proc is descheduled meanwhile, so
// handler execution time is correctly charged to this host's CPU.
func (e *Endpoint) runStream(p *sim.Proc, rs *RecvStream) {
	if rs.state == stateDone {
		return
	}
	if rs.state == stateWaiting {
		if rs.pendingBytes == 0 && !rs.sawLast {
			return // nothing new for the handler yet
		}
		rs.state = stateRunning
		rs.dataSig.Signal()
	}
	for rs.state == stateRunning {
		p.WaitOn(rs)
		rs.idleSig.Wait(p)
	}
}
