// Package shmem implements a Shmem-style one-sided Put/Get interface over
// the unified streaming transport (internal/xport) — one of the
// global-address-space APIs the paper reports layering on FM (§4.2: "we
// have implemented other APIs, including Shmem Put/Get and Global Arrays").
//
// Each node registers named memory regions. Put writes into a remote
// region; Get reads from one. Over FM 2.x the receive handler scatters
// incoming Put payloads directly into the target region — another instance
// of the zero-staging-copy path that layer interleaving enables; over the
// FM 1.x adapter the same handler pays the staged delivery copy instead.
package shmem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Service is the canonical endpoint-service name the shmem layer registers
// under on a shared per-node endpoint.
const Service = "shmem"

// shmemHandlerID is the service-local handler slot the shmem layer claims
// within its HandlerSpace slab.
const shmemHandlerID = 3

// header: kind(1) pad(3) region(4) offset(4) length(4) reqID(4).
const headerSize = 20

// MaxRegion is the most bytes of a region Put and Get address: the header
// carries offset and length as uint32, so offset+length must fit in 32 bits.
const MaxRegion = 1<<32 - 1

const (
	kindPut = iota + 1
	kindPutAck
	kindGetReq
	kindGetResp
)

// Stats counts one-sided operations.
type Stats struct {
	RemotePuts     int64 // puts landed into local regions
	RemoteGetReqs  int64
	DirectPutBytes int64 // put payload scattered straight into the region
}

// Node is one rank's shmem attachment. It binds to a HandlerSpace — a
// service window onto the node's shared endpoint — never to a whole
// transport, so one-sided traffic co-resides with MPI and sockets on one
// fabric attachment.
type Node struct {
	t       *xport.HandlerSpace
	regions map[uint32][]byte
	pending int // outstanding put acks
	// The outstanding Get: a Node is single-threaded and Get blocks, so
	// there is at most one.
	getting bool
	getBuf  []byte
	getReq  uint32
	nextReq uint32
	hdrs    *bufpool.Pool // header scratch (returned after gather)
	zeros   []byte        // what an invalid Get reads (zeroes)
	stats   Stats
}

// Attach binds shmem to its service window on a shared endpoint.
func Attach(sp *xport.HandlerSpace) *Node {
	n := &Node{
		t:       sp,
		regions: make(map[uint32][]byte),
		hdrs:    bufpool.New(0),
	}
	sp.Register(shmemHandlerID, n.handler)
	return n
}

// Rank reports the node ID.
func (n *Node) Rank() int { return n.t.Core().Node() }

// Stats returns a copy of the counters.
func (n *Node) Stats() Stats { return n.stats }

// Register exposes a memory region under an ID. All nodes must register a
// region before peers address it (symmetric allocation, as in SHMEM).
func (n *Node) Register(id uint32, mem []byte) {
	if _, dup := n.regions[id]; dup {
		panic(fmt.Sprintf("shmem: duplicate region %d", id))
	}
	n.regions[id] = mem
}

// Region returns the local backing store of a region.
func (n *Node) Region(id uint32) []byte { return n.regions[id] }

// encode fills a pooled header-scratch buffer; the caller returns it to
// n.hdrs once the transport has gathered it (the send calls copy
// synchronously, so the scratch is dead when they return).
func (n *Node) encode(kind int, region uint32, off, length int, req uint32) []byte {
	h := n.hdrs.Get(headerSize)
	h[0] = byte(kind)
	h[1], h[2], h[3] = 0, 0, 0
	binary.LittleEndian.PutUint32(h[4:], region)
	binary.LittleEndian.PutUint32(h[8:], uint32(off))
	binary.LittleEndian.PutUint32(h[12:], uint32(length))
	binary.LittleEndian.PutUint32(h[16:], req)
	return h
}

// Put writes data into (region, offset) on the target rank. It returns
// once the message is handed off; call Quiet to wait for remote completion.
func (n *Node) Put(p *sim.Proc, target int, region uint32, offset int, data []byte) error {
	if offset < 0 || int64(offset)+int64(len(data)) > MaxRegion {
		return fmt.Errorf("shmem: put of %d bytes at offset %d is past what a region addresses", len(data), offset)
	}
	hdr := n.encode(kindPut, region, offset, len(data), 0)
	err := xport.SendGather(p, n.t, target, shmemHandlerID, hdr, data)
	n.hdrs.Put(hdr)
	if err != nil {
		return err
	}
	n.pending++
	return nil
}

// Quiet blocks until every outstanding Put has been acknowledged by its
// target — the SHMEM quiet/fence semantic.
func (n *Node) Quiet(p *sim.Proc) { n.t.Wait(p, 0, (*quiet)(n)) }

// quiet and got are the conditions Quiet and Get block on (xport.Cond).
type (
	quiet Node
	got   Node
)

func (q *quiet) Done() bool { return q.pending <= 0 }
func (g *got) Done() bool   { return !g.getting }

// Get reads length bytes from (region, offset) on the target rank into buf.
func (n *Node) Get(p *sim.Proc, target int, region uint32, offset int, buf []byte) error {
	if limit := n.t.Core().MaxMessage() - headerSize; len(buf) > limit {
		return fmt.Errorf("shmem: get of %d bytes exceeds what one response carries (%d)", len(buf), limit)
	}
	if offset < 0 || int64(offset)+int64(len(buf)) > MaxRegion {
		return fmt.Errorf("shmem: get of %d bytes at offset %d is past what a region addresses", len(buf), offset)
	}
	n.getReq = n.nextReq
	n.nextReq++
	n.getBuf, n.getting = buf, true
	hdr := n.encode(kindGetReq, region, offset, len(buf), n.getReq)
	err := xport.SendGather(p, n.t, target, shmemHandlerID, hdr)
	n.hdrs.Put(hdr)
	if err != nil {
		n.getBuf, n.getting = nil, false
		return err
	}
	n.t.Wait(p, 0, (*got)(n))
	return nil
}

// Progress services the network once; nodes acting as passive targets must
// call it (or any blocking op) periodically.
func (n *Node) Progress(p *sim.Proc) { n.t.Extract(p, 0) }

// zeroes returns length zero bytes from the node's one zero slab, allocated
// at the size of the largest response on first use: a stream of forged Get
// requests costs the target no memory per request. Senders only read it.
func (n *Node) zeroes(length int) []byte {
	if n.zeros == nil {
		n.zeros = make([]byte, n.t.Core().MaxMessage()-headerSize)
	}
	return n.zeros[:length]
}

// handler serves one-sided traffic on transport handler threads.
func (n *Node) handler(p *sim.Proc, s xport.RecvStream) {
	hdr := xport.ReceiveHeader(p, s, headerSize)
	kind := int(hdr[0])
	region := binary.LittleEndian.Uint32(hdr[4:])
	off := int(binary.LittleEndian.Uint32(hdr[8:]))
	length := int(binary.LittleEndian.Uint32(hdr[12:]))
	req := binary.LittleEndian.Uint32(hdr[16:])
	switch kind {
	case kindPut:
		mem, ok := n.regions[region]
		if !ok || length > s.Remaining() || off+length > len(mem) {
			s.ReceiveDiscard(p, s.Remaining())
			return
		}
		// Scatter straight into the target region: no staging buffer.
		s.Receive(p, mem[off:off+length])
		n.stats.RemotePuts++
		n.stats.DirectPutBytes += int64(length)
		ack := n.encode(kindPutAck, region, off, length, 0)
		err := xport.SendGather(p, n.t, s.Src(), shmemHandlerID, ack)
		n.hdrs.Put(ack)
		if err != nil {
			panic(fmt.Sprintf("shmem: put ack failed: %v", err))
		}
	case kindPutAck:
		n.pending--
	case kindGetReq:
		if length > n.t.Core().MaxMessage()-headerSize {
			return // no response can carry it, so no Get asked for it
		}
		mem, ok := n.regions[region]
		n.stats.RemoteGetReqs++
		resp := n.encode(kindGetResp, region, off, length, req)
		var payload []byte
		if ok && off >= 0 && off+length <= len(mem) {
			payload = mem[off : off+length]
		} else {
			payload = n.zeroes(length) // an invalid request reads zeros
		}
		err := xport.SendGather(p, n.t, s.Src(), shmemHandlerID, resp, payload)
		n.hdrs.Put(resp)
		if err != nil {
			panic(fmt.Sprintf("shmem: get response failed: %v", err))
		}
	case kindGetResp:
		if !n.getting || req != n.getReq || length > len(n.getBuf) || length > s.Remaining() {
			s.ReceiveDiscard(p, s.Remaining())
			return
		}
		s.Receive(p, n.getBuf[:length])
		n.getBuf, n.getting = nil, false
	default:
		panic(fmt.Sprintf("shmem: unknown kind %d", kind))
	}
}
