package xport

import (
	"repro/internal/fm2"
	"repro/internal/sim"
)

// fm2Transport is the native binding: FM 2.x already has the contract's
// shape — Core and ExtractWait are the engine's own, promoted — so only the
// handler and stream types need bridging.
type fm2Transport struct {
	*fm2.Endpoint
}

// OverFM2 exposes an FM 2.x endpoint as a Transport.
func OverFM2(ep *fm2.Endpoint) Transport { return fm2Transport{ep} }

// Register bridges the handler signature: *fm2.RecvStream is a RecvStream.
func (t fm2Transport) Register(id HandlerID, hs *HandlerSpace, fn Handler) {
	t.Endpoint.Register(id, func(p *sim.Proc, s *fm2.RecvStream) { hs.run(p, fn, s) })
}

func (t fm2Transport) BeginMessage(p *sim.Proc, dst, size int, h HandlerID) (SendStream, error) {
	s, err := t.Endpoint.BeginMessage(p, dst, size, h)
	if err != nil {
		return nil, err
	}
	return s, nil
}
