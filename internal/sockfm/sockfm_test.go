package sockfm

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

func stacks(nodes int) (*sim.Kernel, []*Stack) {
	k := sim.NewKernel()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	pl := cluster.New(k, cfg)
	eps := xport.AttachEndpoints(pl, xport.EndpointConfig{Gen: xport.GenFM2})
	sts := make([]*Stack, nodes)
	for i, sp := range xport.Spaces(eps, Service) {
		sts[i] = New(sp)
	}
	return k, sts
}

func TestDialAcceptRoundtrip(t *testing.T) {
	k, sts := stacks(2)
	msg := []byte("sockets over fast messages")
	k.Spawn("server", func(p *sim.Proc) {
		l, err := sts[0].Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 100)
		var got []byte
		for len(got) < len(msg) {
			n, err := conn.Read(p, buf)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("got %q", got)
		}
		conn.Close(p)
	})
	k.Spawn("client", func(p *sim.Proc) {
		p.Delay(10 * sim.Microsecond)
		conn, err := sts[1].Dial(p, 0, 80)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Write(p, msg); err != nil {
			t.Error(err)
		}
		conn.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionRefused(t *testing.T) {
	k, sts := stacks(2)
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := sts[1].Dial(p, 0, 9999); !errors.Is(err, ErrRefused) {
			t.Errorf("err = %v, want ErrRefused", err)
		}
	})
	k.Spawn("server-idle", func(p *sim.Proc) {
		// The target node must service its network for the RST to go out.
		for i := 0; i < 100; i++ {
			sts[0].t.Extract(p, 0)
			p.Delay(2 * sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEOFAfterPeerClose(t *testing.T) {
	k, sts := stacks(2)
	k.Spawn("server", func(p *sim.Proc) {
		l, _ := sts[0].Listen(80)
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 10)
		n, err := conn.Read(p, buf)
		if err != nil || n != 5 {
			t.Errorf("first read n=%d err=%v", n, err)
		}
		if _, err := conn.Read(p, buf); err != io.EOF {
			t.Errorf("err = %v, want EOF", err)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		p.Delay(10 * sim.Microsecond)
		conn, err := sts[1].Dial(p, 0, 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn.Write(p, []byte("hello"))
		conn.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	k, sts := stacks(2)
	k.Spawn("server", func(p *sim.Proc) {
		l, _ := sts[0].Listen(80)
		if _, err := l.Accept(p); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		p.Delay(10 * sim.Microsecond)
		conn, err := sts[1].Dial(p, 0, 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close(p)
		if _, err := conn.Write(p, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTransferSegmented(t *testing.T) {
	k, sts := stacks(2)
	const total = 200 * 1024 // several MaxSegment chunks
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i * 131)
	}
	k.Spawn("server", func(p *sim.Proc) {
		l, _ := sts[0].Listen(80)
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 0, total)
		buf := make([]byte, 8192)
		for {
			n, err := conn.Read(p, buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("transfer corrupted: %d bytes", len(got))
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		p.Delay(10 * sim.Microsecond)
		conn, err := sts[1].Dial(p, 0, 80)
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := conn.Write(p, want); err != nil || n != total {
			t.Errorf("write n=%d err=%v", n, err)
		}
		conn.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReceivePostingTakesDirectPath(t *testing.T) {
	// A reader blocked in Read when data arrives must get it with no
	// intermediate buffering (the Fast Sockets receive-posting comparison,
	// paper §5).
	k, sts := stacks(2)
	payload := bytes.Repeat([]byte{7}, 4096)
	k.Spawn("server", func(p *sim.Proc) {
		l, _ := sts[0].Listen(80)
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 8192)
		got := 0
		for got < len(payload) {
			n, err := conn.Read(p, buf)
			if err != nil {
				t.Error(err)
				return
			}
			got += n
		}
		if conn.DirectBytes == 0 {
			t.Error("no bytes took the posted-read direct path")
		}
		if conn.PooledBytes > conn.DirectBytes {
			t.Errorf("pooled %d > direct %d; posting should dominate",
				conn.PooledBytes, conn.DirectBytes)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		p.Delay(10 * sim.Microsecond)
		conn, err := sts[1].Dial(p, 0, 80)
		if err != nil {
			t.Error(err)
			return
		}
		p.Delay(500 * sim.Microsecond) // reader parks in Read first
		conn.Write(p, payload)
		conn.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoConnectionsInterleaved(t *testing.T) {
	k, sts := stacks(3)
	recv := func(p *sim.Proc, conn *Conn, want byte, total int, t *testing.T) {
		buf := make([]byte, 4096)
		got := 0
		for got < total {
			n, err := conn.Read(p, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			for _, b := range buf[:n] {
				if b != want {
					t.Errorf("stream crossed: got %d want %d", b, want)
					return
				}
			}
			got += n
		}
	}
	k.Spawn("server", func(p *sim.Proc) {
		l, _ := sts[0].Listen(80)
		c1, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		c2, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		a, b := c1, c2
		wantA, wantB := byte(a.PeerNode()), byte(b.PeerNode())
		recv(p, a, wantA, 64*1024, t)
		recv(p, b, wantB, 64*1024, t)
	})
	for i := 1; i <= 2; i++ {
		i := i
		k.Spawn("client", func(p *sim.Proc) {
			p.Delay(sim.Time(i*10) * sim.Microsecond)
			conn, err := sts[i].Dial(p, 0, 80)
			if err != nil {
				t.Error(err)
				return
			}
			conn.Write(p, bytes.Repeat([]byte{byte(i)}, 64*1024))
			conn.Close(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPortInUse(t *testing.T) {
	_, sts := stacks(2)
	if _, err := sts[0].Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := sts[0].Listen(80); err == nil {
		t.Fatal("duplicate Listen accepted")
	}
}

// Property: any split of writes arrives as the same byte stream.
func TestPropertyStreamIntegrity(t *testing.T) {
	f := func(chunks []uint16) bool {
		if len(chunks) == 0 {
			return true
		}
		if len(chunks) > 10 {
			chunks = chunks[:10]
		}
		k, sts := stacks(2)
		var want, got []byte
		for i, c := range chunks {
			n := int(c)%5000 + 1
			want = append(want, bytes.Repeat([]byte{byte(i + 1)}, n)...)
		}
		k.Spawn("server", func(p *sim.Proc) {
			l, _ := sts[0].Listen(80)
			conn, err := l.Accept(p)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 3000)
			for {
				n, err := conn.Read(p, buf)
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, buf[:n]...)
			}
		})
		k.Spawn("client", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond)
			conn, err := sts[1].Dial(p, 0, 80)
			if err != nil {
				t.Error(err)
				return
			}
			off := 0
			for i, c := range chunks {
				n := int(c)%5000 + 1
				conn.Write(p, want[off:off+n])
				off += n
				_ = i
			}
			conn.Close(p)
		})
		if err := k.Run(); err != nil {
			t.Error(err)
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
