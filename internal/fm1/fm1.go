// Package fm1 implements Illinois Fast Messages 1.1 (paper §3, Table 1):
//
//	FM_send_4(dest, handler, i0..i3)  -> Endpoint.Send4
//	FM_send(dest, handler, buf, size) -> Endpoint.Send
//	FM_extract()                      -> Endpoint.Extract
//
// FM 1.x provides reliable, in-order delivery with sender flow control and
// buffer management on top of the Myrinet properties (low error rate,
// deterministic routing, link back-pressure). Its API limitation — messages
// are single contiguous buffers, presented whole to handlers from a staging
// area — is exactly what FM 2.x later fixes, and what the Figure 4
// experiments quantify.
//
// Endpoints are single-threaded, like the real library: exactly one Proc
// per node may call Send*/Extract.
package fm1

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/flowctl"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// HandlerID names a registered message handler, carried in every packet.
type HandlerID uint16

// Handler processes a received message. data is valid only for the duration
// of the call (it aliases FM buffers), matching the real API's contract.
// The Proc is the extracting Proc: handler time is charged to the host CPU.
type Handler func(p *sim.Proc, src int, data []byte)

// Config selects which FM 1.x engine stages are active. The zero value is
// the full protocol; benches for Figure 3a turn stages off.
type Config struct {
	// DisableFlowControl removes credit accounting (stage "link/bus only").
	DisableFlowControl bool
	// DisableBufferMgmt removes staging-copy charges for multi-packet
	// reassembly (stages before the final engine in Figure 3).
	DisableBufferMgmt bool
	// PoisonFrames overwrites recycled frames and assembly buffers with a
	// poison pattern, catching handlers that retain data past their call —
	// the contract the real FM 1.x API imposes. Debug mode: wall-clock cost
	// only.
	PoisonFrames bool
}

// DefaultMaxMessage is the FM 1.x message size limit.
const DefaultMaxMessage = 1 << 20

// wire is the FM 1.x packet header layout (12 bytes), built and parsed by
// flowctl.EndpointCore (data) and flowctl.Plane (credit):
//
//	[0]     type (1=data, 2=credit)
//	[1]     flags (bit0 first fragment, bit1 last fragment)
//	[2:4]   source node
//	[4:6]   handler ID
//	[6:8]   fragment payload length
//	[8:12]  total message length (data) / credit count (credit)
var wire = flowctl.Wire{Size: 12, Handler: 4, FragLen: 6, Total: 8, MaxMessage: DefaultMaxMessage}

// Stats counts endpoint activity.
type Stats = flowctl.Stats

// Endpoint is one node's FM 1.x attachment: the endpoint core every FM
// generation shares (flowctl.EndpointCore: host, NIC, credit plane, frame
// pool, counters, the per-packet send and extract steps, the accessors) plus
// what Table 1's contiguous-buffer API needs — fragmentation of one buffer
// and reassembly into a staging area.
type Endpoint struct {
	flowctl.EndpointCore
	cfg      Config
	handlers map[HandlerID]Handler
	asm      []assembly // per-source reassembly state
	// Multi-packet reassembly draws staging buffers from a bounded free
	// list, so the steady state allocates nothing.
	asmPool *bufpool.Pool
}

type assembly struct {
	buf     []byte
	want    int
	handler HandlerID
	active  bool
}

// Attach creates endpoints for every node of the platform.
func Attach(pl *cluster.Platform, cfg Config) []*Endpoint {
	eps := make([]*Endpoint, pl.Nodes())
	for i := range eps {
		e := &Endpoint{
			EndpointCore: flowctl.NewEndpointCore(pl.NICs[i], pl.Nodes(), wire,
				cfg.PoisonFrames, cfg.DisableFlowControl),
			cfg:      cfg,
			handlers: make(map[HandlerID]Handler),
			asm:      make([]assembly, pl.Nodes()),
		}
		e.asmPool = bufpool.New(netsim.DefaultPoolCap, cfg.PoisonFrames) // the same bound as the core's frame pools
		eps[i] = e
	}
	return eps
}

// AsmPoolStats reports the reassembly-buffer free list's counters.
func (e *Endpoint) AsmPoolStats() bufpool.Stats { return e.asmPool.Stats() }

// Register installs a handler under id. Handlers must be registered before
// any peer sends to them.
func (e *Endpoint) Register(id HandlerID, fn Handler) {
	if _, dup := e.handlers[id]; dup {
		panic(fmt.Sprintf("fm1: duplicate handler %d", id))
	}
	e.handlers[id] = fn
}

// Send4 transmits a four-word message — the FM_send_4 fast path for the
// short messages that dominate real traffic (paper §2.1).
func (e *Endpoint) Send4(p *sim.Proc, dst int, h HandlerID, w0, w1, w2, w3 uint32) error {
	var buf [16]byte
	binary.LittleEndian.PutUint32(buf[0:], w0)
	binary.LittleEndian.PutUint32(buf[4:], w1)
	binary.LittleEndian.PutUint32(buf[8:], w2)
	binary.LittleEndian.PutUint32(buf[12:], w3)
	return e.Send(p, dst, h, buf[:])
}

// Send transmits buf as one FM message, fragmenting at the packet MTU.
// It blocks (in virtual time) on flow-control credits and NIC back-pressure
// but never on the receiver servicing the network: FM buffering lets the
// sender run ahead by a full credit window. dst == Node() is a loopback
// self-send: the handler is dispatched directly on the sending Proc as a
// host memcpy path, with no NIC or flow-control involvement.
func (e *Endpoint) Send(p *sim.Proc, dst int, h HandlerID, buf []byte) error {
	if len(buf) > DefaultMaxMessage {
		return fmt.Errorf("fm1: message of %d bytes exceeds limit %d", len(buf), DefaultMaxMessage)
	}
	p.Delay(e.Host().P.SendSetup)
	total := len(buf)
	if dst == e.Node() {
		e.Count.MsgsSent++
		e.Count.BytesSent += int64(total)
		e.dispatch(p, e.Node(), h, buf)
		return nil
	}
	mtu := e.MTU()
	off := 0
	for {
		n := total - off
		if n > mtu {
			n = mtu
		}
		// The fragment is copied straight into a pooled frame.
		pkt := e.Frame()
		copy(pkt.Payload[wire.Size:], buf[off:off+n])
		e.Emit(p, dst, pkt, off == 0, off+n == total, uint16(h), n, total)
		off += n
		if off >= total {
			break
		}
	}
	e.Count.MsgsSent++
	e.Count.BytesSent += int64(total)
	return nil
}

// Extract services the network: it processes all pending packets, invoking
// handlers for completed messages, and returns the number of messages
// handled. Unlike sends, Extract is the only place handlers run — the
// decoupling FM 1.x guarantees (paper §3.1).
func (e *Endpoint) Extract(p *sim.Proc) int { return e.ExtractWait(p, nil) }

// ExtractWait is Extract on behalf of a caller blocked on w.Until, whose
// empty poll repeats until there is something to extract or the wait is over
// (see flowctl.EndpointCore.Next). A nil w is Extract.
func (e *Endpoint) ExtractWait(p *sim.Proc, w *flowctl.Waiter) int {
	handled := 0
	for first := true; ; first = false {
		pkt := e.Next(p, w, first)
		if pkt == nil {
			return handled
		}
		if e.processData(p, pkt) {
			handled++
		}
		e.Count.PacketsRecvd++
	}
}

// processData consumes one data frame; it reports whether a full message
// was delivered to its handler. The frame releases back to its sender's
// pool here: after the handler returns (single-packet path — data is valid
// only for the duration of the call, the real API's contract) or after the
// staging copy (multi-packet path).
func (e *Endpoint) processData(p *sim.Proc, pkt *netsim.Packet) bool {
	d, ok := e.Open(pkt)
	if !ok {
		return false
	}
	src, h, payload := d.Src, HandlerID(d.Handler), d.Payload
	defer e.Credit.Return(p, src)

	if d.First && d.Last {
		// Single-packet message: the handler gets a pointer into the
		// receive ring — no staging copy.
		done := e.dispatch(p, src, h, payload)
		pkt.Release()
		return done
	}
	// Multi-packet message: FM 1.x must reassemble into a staging buffer
	// before the handler can run — the copy FM 2.x streams eliminate. The
	// staging buffer itself comes from a bounded free list.
	if d.First {
		if prev := &e.asm[src]; prev.active {
			// A new message opened while the previous one's tail never
			// arrived: its closing fragment was lost in flight. Discard the
			// stale staging buffer — without this the pool buffer leaks and
			// the two messages' bytes would be spliced together.
			e.Count.Orphaned++
			e.asmPool.Put(prev.buf)
			*prev = assembly{}
		}
		e.asm[src] = assembly{buf: e.asmPool.GetEmpty(d.Total), want: d.Total, handler: h, active: true}
	}
	a := &e.asm[src]
	if !a.active {
		// Continuation with no assembly open: the message's first fragment
		// was lost in flight. Unrecoverable — discard, return the credit.
		e.Count.Orphaned++
		pkt.Release()
		return false
	}
	// Every change to the assembly is made before the staging copy is
	// charged: a second extractor on this endpoint runs during the charge,
	// and must find the fragment already appended — or the message already
	// detached — not append its own fragment ahead of this one.
	var buf []byte // the whole message, once this fragment closes it
	handler, want := a.handler, a.want
	poisoned := len(a.buf)+len(payload) > a.want
	if poisoned {
		// More bytes than the message declared: a middle fragment of the
		// PREVIOUS attempt survived into this assembly, or lengths lie.
		// Either way the reassembly is poisoned; drop it whole.
		e.Count.Orphaned++
		e.asmPool.Put(a.buf)
		e.asm[src] = assembly{}
	} else {
		a.buf = append(a.buf, payload...)
		if d.Last {
			buf = a.buf
			e.asm[src] = assembly{}
		}
	}
	if !e.cfg.DisableBufferMgmt {
		e.Host().Memcpy(p, len(payload)) // staging copy, charged
	}
	pkt.Release() // payload is staged; the frame can recycle
	if poisoned || !d.Last {
		return false
	}
	if len(buf) != want {
		// Short reassembly: a middle fragment was lost in flight.
		e.Count.Orphaned++
		e.asmPool.Put(buf)
		return false
	}
	done := e.dispatch(p, src, handler, buf)
	e.asmPool.Put(buf)
	return done
}

func (e *Endpoint) dispatch(p *sim.Proc, src int, h HandlerID, data []byte) bool {
	fn, ok := e.handlers[h]
	if !ok {
		e.Count.UnknownHandler++
		return false
	}
	p.Delay(e.Host().P.HandlerDispatch)
	fn(p, src, data)
	e.Count.MsgsRecvd++
	e.Count.BytesRecvd += int64(len(data))
	return true
}
