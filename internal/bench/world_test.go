package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

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

// An edited Machine whose empty poll is not positive fails at build, in the
// validation's words, instead of spinning a waiting rank at one instant
// (zero) or panicking inside it mid-run (negative). Each driver runs on its
// own goroutine, so a spin fails the row instead of hanging the test.
func TestMachineWithBadPollFailsAtBuild(t *testing.T) {
	for _, poll := range []sim.Time{0, -1} {
		m := xport.GenFM2.Machine()
		m.Profile.PollEmpty = poll
		got := make(chan string, 1)
		go func() {
			defer func() { got <- fmt.Sprint(recover()) }()
			MPILatency(m, 16, 2)
		}()
		select {
		case msg := <-got:
			if want := fmt.Sprintf("PollEmpty %v must be positive", poll); !strings.Contains(msg, want) {
				t.Errorf("PollEmpty %v: driver ended with %q, want %q", poll, msg, want)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("PollEmpty %v: the driver is still running", poll)
		}
	}
}
