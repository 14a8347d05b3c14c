package sim

import (
	"fmt"
	"testing"
)

// Coverage for the Chan internals a feed of one-shot events leans on:
// ring-buffer wraparound under sustained TrySend/Recv cycling (deliveries
// spawned with SpawnAt land via TrySend) and FIFO admission when a deep
// queue of parked senders drains gradually — the shape a saturated injector
// produces.

// TestChanRingWraparoundFromDriverEvents feeds a bounded channel from
// one-shot Procs spawned one latency after each send, through many full
// fill/drain cycles, so the ring's head wraps its backing array repeatedly,
// and checks strict FIFO end to end.
func TestChanRingWraparoundFromDriverEvents(t *testing.T) {
	const (
		capN   = 5 // odd-ish capacity: head lands on every residue
		total  = 500
		lat    = 100 * Nanosecond
		period = 40 * Nanosecond
	)
	k := NewKernel()
	ch := NewChan[int](k, capN)
	dropped := 0
	deliver := func(v int) {
		if !ch.TrySend(v) {
			dropped++ // would mean the pacing math below is wrong
		}
	}
	k.Spawn("sender", func(p *Proc) {
		for i := 0; i < total; i++ {
			k.SpawnAt(p.Now()+lat, "deliver", func(*Proc) { deliver(i) })
			p.Delay(period)
		}
	})
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		// Alternate fast and slow consumption so occupancy sweeps the whole
		// ring: bursts fill to capacity (wrap), drains empty it (rewind).
		for len(got) < total {
			got = append(got, ch.Recv(p))
			if len(got)%capN == 0 {
				p.Delay(period * (capN - 1))
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("%d deliveries found the ring full", dropped)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

// TestChanRingGrowthPreservesOrder pins the buffer's grow-in-place: a ring
// that doubles while head is mid-array must relocate the live window
// without reordering.
func TestChanRingGrowthPreservesOrder(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 64)
	var got []int
	k.Spawn("driver", func(p *Proc) {
		next := 0
		// Interleave sends and recvs so head advances before each growth
		// step: 3 in, 1 out, repeatedly — depth climbs through every
		// doubling (4, 8, 16, 32, 64) with head nonzero.
		for next < 200 {
			for j := 0; j < 3 && next < 200; j++ {
				if !ch.TrySend(next) {
					v, _ := ch.TryRecv()
					got = append(got, v)
					ch.TrySend(next)
				}
				next++
			}
			if v, ok := ch.TryRecv(); ok {
				got = append(got, v)
			}
		}
		for {
			v, ok := ch.TryRecv()
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("drained %d of 200", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
}

// TestParkedSendersAdmitInOrder parks a deep column of senders on a full
// channel — the saturated-injector shape — then drains slowly, so the
// sender queue grows, wraps and drains while live waiters remain. FIFO
// admission order must survive.
func TestParkedSendersAdmitInOrder(t *testing.T) {
	const senders = 128 // deep enough for several ring doublings
	k := NewKernel()
	ch := NewChan[int](k, 2)
	for i := 0; i < senders; i++ {
		i := i
		k.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) {
			p.Delay(Time(i)) // deterministic park order: s0, s1, ...
			ch.Send(p, i)
		})
	}
	var got []int
	k.Spawn("drain", func(p *Proc) {
		p.Delay(Time(senders)) // let every sender park first
		if ch.senders() != senders-2 {
			panic(fmt.Sprintf("expected %d parked senders, have %d", senders-2, ch.senders()))
		}
		for len(got) < senders {
			got = append(got, ch.Recv(p))
			p.Delay(Nanosecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("sender admission order broken at %d: got %d", i, v)
		}
	}
}
