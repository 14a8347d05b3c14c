package fm2

import (
	"encoding/binary"
	"fmt"

	"repro/internal/flowctl"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// SendStream is an open outgoing message: a byte stream composed piecewise
// by SendPiece calls (gather) and packetized transparently at the MTU.
// Pieces are gathered DIRECTLY into a pooled NIC frame with the header
// written in place — the PIO transfer into the NIC is the only data
// movement, and the steady-state send path performs no allocation: frames
// recirculate through the endpoint's pool and stream records are recycled
// at EndMessage.
// Loopback streams (dst == sender) skip packetization entirely: pieces are
// gathered into a pooled host buffer and presented to the local handler at
// EndMessage, a pure memcpy path that never touches the NIC.
type SendStream struct {
	e       *Endpoint
	dst     int
	handler flowctl.HandlerID
	msgid   uint16
	total   int            // declared message size
	sent    int            // payload bytes accepted so far
	frame   *netsim.Packet // pooled frame being gathered (nil after last flush)
	fill    int            // payload bytes gathered into frame
	loop    []byte         // loopback staging (aliased by the local RecvStream)
	first   bool
	closed  bool
}

// getSendStream draws a recycled stream record, or allocates the pool's
// first few.
func (e *Endpoint) getSendStream() *SendStream {
	if s, ok := e.ssPool.Get(); ok {
		return s
	}
	return &SendStream{e: e}
}

// putSendStream recycles a closed stream record. The free list holds at most
// netsim.DefaultPoolCap of them, like the endpoint's other pools.
func (e *Endpoint) putSendStream(s *SendStream) {
	s.frame = nil
	s.loop = nil
	e.ssPool.Put(s, nil)
}

// BeginMessage opens a message of exactly `size` payload bytes toward dst.
// The size is carried in the first packet's header, as in the real API, so
// receivers can select destination buffers before the payload arrives.
// dst == Node() opens a loopback self-send.
//
// The returned stream is owned by the endpoint and is recycled when
// EndMessage returns: callers must not retain it past that point.
func (e *Endpoint) BeginMessage(p *sim.Proc, dst, size int, h flowctl.HandlerID) (*SendStream, error) {
	if size < 0 || size > DefaultMaxMessage {
		return nil, fmt.Errorf("fm2: message size %d out of range [0,%d]", size, DefaultMaxMessage)
	}
	p.Delay(e.Host().P.SendSetup)
	e.msgSeq++
	s := e.getSendStream()
	s.dst = dst
	s.handler = h
	s.msgid = e.msgSeq
	s.total = size
	s.sent = 0
	s.fill = 0
	s.first = true
	s.closed = false
	if dst == e.Node() {
		s.loop = e.loopPool.GetEmpty(size)
		return s, nil
	}
	s.frame = e.Frame()
	return s, nil
}

// SendPiece appends buf to the message stream. Pieces of arbitrary sizes
// are gathered directly into the outgoing pooled frame: the PIO transfer
// into the NIC is the only data movement, eliminating the assembly copy
// that the FM 1.x contiguous-buffer API forces on upper layers (paper
// §4.1) — and, in this simulator, eliminating the staging-slice-to-frame
// copy and per-flush allocation the previous engine performed.
func (s *SendStream) SendPiece(p *sim.Proc, buf []byte) error {
	if s.closed {
		return fmt.Errorf("fm2: SendPiece after EndMessage")
	}
	if s.sent+len(buf) > s.total {
		return fmt.Errorf("fm2: piece overflows declared size %d (already %d, piece %d)",
			s.total, s.sent, len(buf))
	}
	if s.dst == s.e.Node() {
		// Loopback: gather into the host staging buffer, charged as the
		// memcpy it is.
		s.loop = append(s.loop, buf...)
		s.sent += len(buf)
		if len(buf) > 0 {
			s.e.Host().Memcpy(p, len(buf))
		}
		return nil
	}
	mtu := s.e.MTU()
	for len(buf) > 0 {
		if s.fill == mtu {
			// Packet full and more bytes follow: it cannot be the last.
			s.flush(p, false)
		}
		n := copy(s.frame.Payload[headerSize+s.fill:headerSize+mtu], buf)
		s.fill += n
		buf = buf[n:]
		s.sent += n
	}
	return nil
}

// EndMessage closes the stream, flushing the final packet with the LAST
// flag. Every byte declared in BeginMessage must have been supplied. A
// loopback stream instead presents the gathered bytes to the local handler.
// The stream record is recycled on success; it must not be used afterwards.
func (s *SendStream) EndMessage(p *sim.Proc) error {
	if s.closed {
		return fmt.Errorf("fm2: double EndMessage")
	}
	if s.sent != s.total {
		return fmt.Errorf("fm2: EndMessage with %d of %d declared bytes sent", s.sent, s.total)
	}
	s.closed = true
	e := s.e
	e.Count.MsgsSent++
	e.Count.BytesSent += int64(s.total)
	if s.dst == e.Node() {
		loop := s.loop
		e.deliverLoopback(p, s.handler, s.msgid, loop)
		// The local handler has run to completion (every byte was present),
		// so the staging buffer is dead and can recycle.
		e.loopPool.Put(loop)
		e.putSendStream(s)
		return nil
	}
	s.flush(p, true)
	e.putSendStream(s)
	return nil
}

// flush transmits the current frame. Frames are flushed lazily so the final
// one always carries the LAST flag without an extra empty packet. The header
// goes in place in front of the gathered payload (Emit; the message ID is
// ours), and unless this was the last packet the next frame is drawn.
func (s *SendStream) flush(p *sim.Proc, last bool) {
	e := s.e
	binary.LittleEndian.PutUint16(s.frame.Payload[msgIDOff:], s.msgid)
	e.Emit(p, s.dst, s.frame, s.first, last, s.handler, s.fill, s.total)
	s.first = false
	s.fill = 0
	if last {
		s.frame = nil
	} else {
		s.frame = e.Frame()
	}
}

// Send transmits buf as a single-piece message: the convenience path for
// callers that do not need gather.
func (e *Endpoint) Send(p *sim.Proc, dst int, h flowctl.HandlerID, buf []byte) error {
	s, err := e.BeginMessage(p, dst, len(buf), h)
	if err != nil {
		return err
	}
	if err := s.SendPiece(p, buf); err != nil {
		return err
	}
	return s.EndMessage(p)
}
