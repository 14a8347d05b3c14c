package xport

import (
	"repro/internal/flowctl"
	"repro/internal/fm2"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

// fm2Transport is the native binding: FM 2.x already has the contract's
// shape, so every method is a direct delegation.
type fm2Transport struct {
	ep *fm2.Endpoint
}

// OverFM2 exposes an FM 2.x endpoint as a Transport.
func OverFM2(ep *fm2.Endpoint) Transport { return &fm2Transport{ep: ep} }

func (t *fm2Transport) Node() int             { return t.ep.Node() }
func (t *fm2Transport) Host() *hostmodel.Host { return t.ep.Host() }
func (t *fm2Transport) MTU() int              { return t.ep.MTU() }
func (t *fm2Transport) MaxMessage() int       { return t.ep.MaxMessage() }
func (t *fm2Transport) Extract(p *sim.Proc, maxBytes int) int {
	return t.ep.Extract(p, maxBytes)
}
func (t *fm2Transport) ExtractWait(p *sim.Proc, maxBytes int, w *flowctl.Waiter) int {
	return t.ep.ExtractWait(p, maxBytes, w)
}
func (t *fm2Transport) Packets() int64 { return t.ep.Stats().PacketsRecvd }

func (t *fm2Transport) Poisoned() bool { return t.ep.Poisoned() }

// FlowControl exposes the engine's credit ledger (CreditAccounting).
func (t *fm2Transport) FlowControl() *flowctl.Manager { return t.ep.FlowControl() }

// ActiveStreams reports in-flight receive messages (StreamAccounting) — the
// count a hang diagnostic reads to see messages stuck mid-delivery.
func (t *fm2Transport) ActiveStreams() int { return t.ep.ActiveStreams() }

// Anomalies reports the engine's frame hygiene counters (FrameAnomalies).
func (t *fm2Transport) Anomalies() (malformed, orphaned int64) {
	st := t.ep.Stats()
	return st.Malformed, st.Orphaned
}

func (t *fm2Transport) Register(id HandlerID, fn Handler) {
	// *fm2.RecvStream satisfies RecvStream structurally; only the handler
	// signature needs bridging.
	t.ep.Register(fm2.HandlerID(id), func(p *sim.Proc, s *fm2.RecvStream) { fn(p, s) })
}

func (t *fm2Transport) BeginMessage(p *sim.Proc, dst, size int, h HandlerID) (SendStream, error) {
	s, err := t.ep.BeginMessage(p, dst, size, fm2.HandlerID(h))
	if err != nil {
		return nil, err
	}
	return s, nil
}
