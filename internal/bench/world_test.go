package bench

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/xport"
)

// TestMachineIsTheWholeMachine: a driver measures exactly the Machine it is
// handed, the MPI layer's costs included. Raising FM 2.x's Profile.MPI.Send
// by 1 us moves MPI-FM 2.x's 16 B one-way latency by exactly that 1 us, with
// no source edit; FM 1.x's machine is not touched by it.
func TestMachineIsTheWholeMachine(t *testing.T) {
	const size, iters = 16, 50
	raised := xport.GenFM2.Machine()
	raised.Profile.MPI.Send += sim.Microsecond
	for _, c := range []struct {
		name string
		m    xport.Machine
		want sim.Time
	}{
		{"fm2", xport.GenFM2.Machine(), 13101 * sim.Nanosecond},
		{"fm2, MPI send +1us", raised, 14101 * sim.Nanosecond},
		{"fm1", xport.GenFM1.Machine(), 37810 * sim.Nanosecond},
	} {
		if got := MPILatency(c.m, size, iters); got != c.want {
			t.Errorf("%s: MPI latency %v, want %v", c.name, got, c.want)
		}
	}
}
