package xport

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/flowctl"
	"repro/internal/fm1"
	"repro/internal/sim"
)

// fm1Transport adapts the FM 1.x contiguous-buffer API to the streaming
// contract. The adaptation is not free, by design: the paper's Figure 4
// blames the 1.x interface for exactly the copies this adapter must perform
// — send-side assembly of the gathered pieces into one buffer plus an
// encapsulation traversal, and receive-side delivery out of FM's staging
// area. Running a layer over OverFM1 vs OverFM2 therefore reproduces the
// layering-cost ablation with a single upper-layer code path.
//
// The VIRTUAL-TIME tax is charged in full, but the adapter's own wall-clock
// footprint is pooled: staging buffers and stream records recycle through
// bounded free lists, so steady-state traffic allocates nothing here.
type fm1Transport struct {
	*fm1.Endpoint // Core is the engine's own, promoted

	stage     *bufpool.Pool // send-side assembly buffers
	ssPool    bufpool.Recycler[*fm1SendStream]
	stagedRcv bufpool.Recycler[*stagedStream]
}

// OverFM1 exposes an FM 1.x endpoint as a Transport through the
// staging-copy adapter.
func OverFM1(ep *fm1.Endpoint) Transport {
	// The staging copy is an aliasable recycled buffer too.
	return &fm1Transport{Endpoint: ep, stage: bufpool.New(0)}
}

// ExtractWait services the network. FM 1.x has no receiver flow control:
// FM_extract() processes everything pending, presenting data whether or not
// the upper layer is ready, so the byte budget is ignored.
func (t *fm1Transport) ExtractWait(p *sim.Proc, maxBytes int, w *flowctl.Waiter) int {
	return t.Endpoint.ExtractWait(p, w)
}

// Register presents each staged message to fn as a stream.
func (t *fm1Transport) Register(id HandlerID, hs *HandlerSpace, fn Handler) {
	t.Endpoint.Register(id, func(p *sim.Proc, src int, data []byte) {
		// Stream records recycle: FM 1.x data (and therefore the stream
		// view of it) is valid only for the duration of the handler call.
		s, ok := t.stagedRcv.Get()
		if !ok {
			s = &stagedStream{t: t}
		}
		s.src, s.data, s.msglen = src, data, len(data)
		hs.run(p, fn, s)
		s.data = nil
		t.stagedRcv.Put(s, nil)
	})
}

func (t *fm1Transport) BeginMessage(p *sim.Proc, dst, size int, h HandlerID) (SendStream, error) {
	if size < 0 || size > t.MaxMessage() {
		return nil, fmt.Errorf("xport/fm1: message size %d out of range [0,%d]", size, t.MaxMessage())
	}
	s, ok := t.ssPool.Get()
	if !ok {
		s = &fm1SendStream{t: t}
	}
	s.dst, s.handler, s.total, s.closed = dst, h, size, false
	s.buf = t.stage.GetEmpty(size)
	return s, nil
}

// fm1SendStream assembles the gathered pieces into one contiguous message —
// the copy the FM 1.x API forces on every send.
type fm1SendStream struct {
	t       *fm1Transport
	dst     int
	handler HandlerID
	buf     []byte
	total   int
	closed  bool
}

func (s *fm1SendStream) SendPiece(p *sim.Proc, buf []byte) error {
	if s.closed {
		return fmt.Errorf("xport/fm1: SendPiece after EndMessage")
	}
	if len(s.buf)+len(buf) > s.total {
		return fmt.Errorf("xport/fm1: piece overflows declared size %d (already %d, piece %d)",
			s.total, len(s.buf), len(buf))
	}
	s.buf = append(s.buf, buf...)
	s.t.Host().Memcpy(p, len(buf)) // assembly copy into the staging buffer
	return nil
}

func (s *fm1SendStream) EndMessage(p *sim.Proc) error {
	if s.closed {
		return fmt.Errorf("xport/fm1: double EndMessage")
	}
	if len(s.buf) != s.total {
		return fmt.Errorf("xport/fm1: EndMessage with %d of %d declared bytes sent", len(s.buf), s.total)
	}
	s.closed = true
	// Encapsulation/checksum traversal: FM 1.x-era devices walk the
	// assembled message once more before handing it to FM (paper §3.2).
	s.t.Host().Memcpy(p, len(s.buf))
	// fm1.Endpoint handles dst == self as a loopback dispatch, with the
	// same stats and unknown-handler-discard semantics as remote delivery.
	err := s.t.Send(p, s.dst, s.handler, s.buf)
	// Send has copied every byte into NIC frames (or dispatched the
	// loopback), so the staging buffer and stream record recycle here.
	t := s.t
	t.stage.Put(s.buf)
	s.buf = nil
	t.ssPool.Put(s, nil)
	return err
}

// stagedStream presents a fully-staged FM 1.x message through the pull
// interface. Receive never blocks — the whole message is already in FM's
// buffer — but each pull charges the delivery copy out of staging, the
// receive-side half of the 1.x interface tax.
type stagedStream struct {
	t      *fm1Transport
	src    int
	data   []byte // unconsumed remainder; aliases FM buffers
	msglen int
}

func (s *stagedStream) Src() int       { return s.src }
func (s *stagedStream) Length() int    { return s.msglen }
func (s *stagedStream) Remaining() int { return len(s.data) }

func (s *stagedStream) Receive(p *sim.Proc, buf []byte) int {
	n := copy(buf, s.data)
	s.data = s.data[n:]
	if n > 0 {
		s.t.Host().Memcpy(p, n)
	}
	return n
}

func (s *stagedStream) ReceiveDiscard(p *sim.Proc, n int) int {
	if n > len(s.data) {
		n = len(s.data)
	}
	s.data = s.data[n:]
	return n
}
