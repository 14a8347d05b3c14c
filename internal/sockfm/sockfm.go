// Package sockfm implements Sockets-FM: Berkeley-style stream sockets over
// the unified streaming transport (internal/xport), one of the higher-level
// APIs the paper layers on FM (§3.2, §4.2). It exercises all three FM 2.x
// services, which degrade gracefully to the staged FM 1.x path when run
// over the 1.x adapter:
//
//   - gather: each segment is sent as socket header + payload pieces;
//   - layer interleaving: the receive handler reads the header, then lands
//     payload directly in a posted Read buffer when one is outstanding
//     (receive posting, as in Berkeley Fast Sockets — paper §5);
//   - receiver flow control: Read paces extraction to its buffer size.
//
// Like FM itself, a Stack is single-threaded: one Proc per node drives all
// of its sockets.
package sockfm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bufpool"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Service is the canonical endpoint-service name the socket stack
// registers under on a shared per-node endpoint.
const Service = "sockets"

// sockHandlerID is the service-local handler slot the socket stack claims
// within its HandlerSpace slab.
const sockHandlerID = 2

// headerSize is the socket segment header: kind(1) pad(1) port(2)
// srcConn(4) dstConn(4).
const headerSize = 12

const (
	kindSYN = iota + 1
	kindSYNACK
	kindRST
	kindDATA
	kindFIN
)

// MaxSegment is the largest payload carried by one FM message.
const MaxSegment = 32 * 1024

// Errors returned by the API.
var (
	ErrRefused = errors.New("sockfm: connection refused")
	ErrClosed  = errors.New("sockfm: connection closed")
)

// Stack is one node's socket layer. It binds to a HandlerSpace — a service
// window onto the node's shared endpoint — never to a whole transport, so
// sockets co-reside with MPI, shmem, and global arrays on one fabric
// attachment.
type Stack struct {
	t         *xport.HandlerSpace
	listeners map[int]*Listener
	conns     map[uint32]*Conn
	nextID    uint32
	hdrs      *bufpool.Pool // segment-header scratch (returned after gather)
	segs      *bufpool.Pool // buffered-path segment bodies
}

// New attaches a socket stack to its service window on a shared endpoint.
func New(sp *xport.HandlerSpace) *Stack {
	s := &Stack{
		t:         sp,
		listeners: make(map[int]*Listener),
		conns:     make(map[uint32]*Conn),
		nextID:    1,
		hdrs:      bufpool.New(0),
		segs:      bufpool.New(0),
	}
	sp.Register(sockHandlerID, s.handler)
	return s
}

// Node reports the stack's node ID.
func (s *Stack) Node() int { return s.t.Node() }

// PoolStats reports the recycling counters (incl. high-water marks) of the
// stack's header-scratch and segment-body pools.
func (s *Stack) PoolStats() (hdrs, segs bufpool.Stats) {
	return s.hdrs.Stats(), s.segs.Stats()
}

// Listener accepts inbound connections on a port.
type Listener struct {
	s       *Stack
	port    int
	backlog sim.Queue[*Conn]
}

// Listen opens a listening port.
func (s *Stack) Listen(port int) (*Listener, error) {
	if _, busy := s.listeners[port]; busy {
		return nil, fmt.Errorf("sockfm: port %d in use", port)
	}
	l := &Listener{s: s, port: port}
	s.listeners[port] = l
	return l, nil
}

// Close stops listening; queued connections are reset.
func (l *Listener) Close(p *sim.Proc) {
	delete(l.s.listeners, l.port)
	for l.backlog.Len() > 0 {
		c := l.backlog.Pop()
		l.s.sendCtl(p, c.peerNode, kindRST, l.port, c.localID, c.peerID)
	}
}

// Accept blocks until an inbound connection is established.
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	l.s.t.Wait(p, 0, (*accepting)(l))
	c := l.backlog.Pop()
	// Complete the handshake.
	l.s.sendCtl(p, c.peerNode, kindSYNACK, l.port, c.localID, c.peerID)
	c.state = stateOpen
	return c, nil
}

// connState tracks the socket lifecycle.
type connState int

const (
	stateConnecting connState = iota
	stateOpen
	statePeerClosed // FIN received; reads drain, writes fail
	stateClosed
	stateRefused
)

// Conn is one end of an established stream.
type Conn struct {
	s        *Stack
	localID  uint32
	peerID   uint32
	peerNode int
	port     int
	state    connState

	rxq      sim.Queue[rxSeg] // buffered segments (pool path)
	posted   []byte           // outstanding Read buffer (receive posting)
	postedN  int              // bytes landed in posted so far
	landing  bool             // a handler is mid-Receive into posted
	rxClosed bool             // FIN seen

	// Stats for the zero-copy story.
	DirectBytes int64 // landed straight into posted Read buffers
	PooledBytes int64 // buffered first
}

// Dial opens a connection to (node, port), blocking through the handshake.
func (s *Stack) Dial(p *sim.Proc, node, port int) (*Conn, error) {
	c := &Conn{s: s, localID: s.nextID, peerNode: node, port: port, state: stateConnecting}
	s.nextID++
	s.conns[c.localID] = c
	s.sendCtl(p, node, kindSYN, port, c.localID, 0)
	s.t.Wait(p, 0, (*dialing)(c))
	if c.state == stateRefused {
		delete(s.conns, c.localID)
		return nil, ErrRefused
	}
	return c, nil
}

// Write sends data, segmenting at MaxSegment. It blocks only on FM flow
// control, returning once the data is handed to the NIC.
func (c *Conn) Write(p *sim.Proc, data []byte) (int, error) {
	if c.state != stateOpen && c.state != statePeerClosed {
		return 0, ErrClosed
	}
	sent := 0
	for sent < len(data) {
		n := len(data) - sent
		if n > MaxSegment {
			n = MaxSegment
		}
		hdr := c.s.encode(kindDATA, c.port, c.localID, c.peerID)
		err := xport.SendGather(p, c.s.t, c.peerNode, sockHandlerID, hdr, data[sent:sent+n])
		c.s.hdrs.Put(hdr) // gathered into the stream; scratch recycles
		if err != nil {
			return sent, err
		}
		sent += n
	}
	return sent, nil
}

// Read fills buf with available data, blocking until at least one byte
// arrives or the peer closes (then io.EOF). Reads pace extraction to the
// buffer size: receiver flow control at the socket layer.
func (c *Conn) Read(p *sim.Proc, buf []byte) (int, error) {
	if c.state == stateClosed {
		return 0, ErrClosed
	}
	if len(buf) == 0 {
		return 0, nil
	}
	// Drain buffered segments first.
	if n := c.drain(p, buf); n > 0 {
		return n, nil
	}
	if c.rxClosed {
		return 0, io.EOF
	}
	// Post the buffer so the handler can land payload directly in it.
	c.posted = buf
	c.postedN = 0
	// Keep driving progress while a handler is mid-landing into buf:
	// returning early would hand the caller a buffer a descheduled handler
	// still writes to.
	c.s.t.Wait(p, len(buf)+headerSize+16, (*reading)(c))
	c.posted = nil
	if c.postedN > 0 {
		return c.postedN, nil
	}
	if n := c.drain(p, buf); n > 0 {
		return n, nil
	}
	return 0, io.EOF
}

// accepting, dialing and reading are the conditions Accept, Dial and Read
// block on (xport.Cond).
type (
	accepting Listener
	dialing   Conn
	reading   Conn
)

func (a *accepting) Done() bool { return a.backlog.Len() > 0 }

func (d *dialing) Done() bool { return d.state != stateConnecting }

func (r *reading) Done() bool {
	c := (*Conn)(r)
	return !c.landing && (c.postedN > 0 || c.rxClosed || c.queued() > 0)
}

// rxSeg is one buffered segment: a pooled body buffer plus a consumption
// offset. The buffer returns to the stack's pool once fully drained.
type rxSeg struct {
	buf []byte
	off int
}

// queued reports buffered segments not yet fully drained.
func (c *Conn) queued() int { return c.rxq.Len() }

// pushSeg buffers one pooled segment body.
func (c *Conn) pushSeg(buf []byte) { *c.rxq.Push() = rxSeg{buf: buf} }

// popSeg retires the oldest segment, recycling its buffer.
func (c *Conn) popSeg() {
	c.s.segs.Put(c.rxq.Pop().buf)
}

// drain copies buffered segments into buf (the pool path's second copy).
func (c *Conn) drain(p *sim.Proc, buf []byte) int {
	n := 0
	for n < len(buf) && c.queued() > 0 {
		seg := c.rxq.Front()
		m := copy(buf[n:], seg.buf[seg.off:])
		seg.off += m
		if seg.off == len(seg.buf) {
			c.popSeg()
		}
		n += m
	}
	if n > 0 {
		c.s.t.Host().Memcpy(p, n)
	}
	return n
}

// Close sends FIN and tears down the local endpoint; undrained segment
// buffers recycle to the stack's pool.
func (c *Conn) Close(p *sim.Proc) error {
	if c.state == stateClosed {
		return nil
	}
	if c.state == stateOpen || c.state == statePeerClosed {
		c.s.sendCtl(p, c.peerNode, kindFIN, c.port, c.localID, c.peerID)
	}
	c.state = stateClosed
	for c.queued() > 0 {
		c.popSeg()
	}
	delete(c.s.conns, c.localID)
	return nil
}

// PeerNode reports the remote node ID.
func (c *Conn) PeerNode() int { return c.peerNode }

// encode fills a pooled header-scratch buffer; the caller returns it to
// s.hdrs once the transport has gathered it (SendGather/Send copy
// synchronously, so the scratch is dead when the send call returns).
func (s *Stack) encode(kind, port int, srcConn, dstConn uint32) []byte {
	h := s.hdrs.Get(headerSize)
	h[0] = byte(kind)
	h[1] = 0
	binary.LittleEndian.PutUint16(h[2:], uint16(port))
	binary.LittleEndian.PutUint32(h[4:], srcConn)
	binary.LittleEndian.PutUint32(h[8:], dstConn)
	return h
}

func (s *Stack) sendCtl(p *sim.Proc, node, kind, port int, srcConn, dstConn uint32) {
	hdr := s.encode(kind, port, srcConn, dstConn)
	err := xport.SendGather(p, s.t, node, sockHandlerID, hdr)
	s.hdrs.Put(hdr)
	if err != nil {
		panic(fmt.Sprintf("sockfm: control send failed: %v", err))
	}
}

// handler demultiplexes inbound segments. It runs on a transport handler
// thread; for DATA it lands payload directly into a posted Read buffer when
// one is outstanding (zero staging copy over FM 2.x) and buffers otherwise.
func (s *Stack) handler(p *sim.Proc, str xport.RecvStream) {
	hdr := xport.ReceiveHeader(p, str, headerSize)
	kind := int(hdr[0])
	port := int(binary.LittleEndian.Uint16(hdr[2:]))
	srcConn := binary.LittleEndian.Uint32(hdr[4:])
	dstConn := binary.LittleEndian.Uint32(hdr[8:])
	switch kind {
	case kindSYN:
		l := s.listeners[port]
		if l == nil {
			s.sendCtl(p, str.Src(), kindRST, port, 0, srcConn)
			return
		}
		c := &Conn{s: s, localID: s.nextID, peerID: srcConn, peerNode: str.Src(),
			port: port, state: stateConnecting}
		s.nextID++
		s.conns[c.localID] = c
		*l.backlog.Push() = c
	case kindSYNACK:
		if c := s.conns[dstConn]; c != nil && c.state == stateConnecting {
			c.peerID = srcConn
			c.state = stateOpen
		}
	case kindRST:
		if c := s.conns[dstConn]; c != nil && c.state == stateConnecting {
			c.state = stateRefused
		}
	case kindFIN:
		if c := s.conns[dstConn]; c != nil {
			c.rxClosed = true
			if c.state == stateOpen {
				c.state = statePeerClosed
			}
		}
	case kindDATA:
		c := s.conns[dstConn]
		n := str.Remaining()
		if c == nil || c.state == stateClosed {
			str.ReceiveDiscard(p, n)
			return
		}
		if c.posted != nil && c.postedN < len(c.posted) && c.queued() == 0 {
			// Receive posting: payload lands straight in the Read buffer.
			// Only valid while nothing older waits in the queue, or this
			// segment would overtake buffered bytes.
			m := len(c.posted) - c.postedN
			if m > n {
				m = n
			}
			c.landing = true
			str.Receive(p, c.posted[c.postedN:c.postedN+m])
			c.postedN += m
			c.landing = false
			c.DirectBytes += int64(m)
			n -= m
		}
		if n > 0 {
			seg := s.segs.Get(n)
			str.Receive(p, seg)
			c.pushSeg(seg)
			c.PooledBytes += int64(n)
		}
	default:
		panic(fmt.Sprintf("sockfm: unknown segment kind %d", kind))
	}
}
