package xport

import (
	"repro/internal/fm2"
	"repro/internal/sim"
)

// fm2Transport is the native binding: FM 2.x already has the contract's
// shape — Core and ExtractWait are the engine's own, promoted — so only the handler and stream types need bridging.
type fm2Transport struct {
	*fm2.Endpoint
}

// OverFM2 exposes an FM 2.x endpoint as a Transport.
func OverFM2(ep *fm2.Endpoint) Transport { return fm2Transport{ep} }

func (t fm2Transport) Register(id HandlerID, fn Handler) {
	// *fm2.RecvStream satisfies RecvStream structurally; only the handler
	// signature needs bridging.
	t.Endpoint.Register(fm2.HandlerID(id), func(p *sim.Proc, s *fm2.RecvStream) { fn(p, s) })
}

func (t fm2Transport) BeginMessage(p *sim.Proc, dst, size int, h HandlerID) (SendStream, error) {
	s, err := t.Endpoint.BeginMessage(p, dst, size, fm2.HandlerID(h))
	if err != nil {
		return nil, err
	}
	return s, nil
}
