package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/garr"
	"repro/internal/mpifm"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sockfm"
	"repro/internal/xport"
)

// pt2pt-sweep: the paper's two-node measurement, through the full stack.
// Every cell builds a fresh two-node machine (`pair` topology: one wire, so
// the event heap is tiny and per-message cost in lanai/fm*/xport/the upper
// layer dominates), runs one traffic pattern through one upper layer over one
// FM generation, and verifies every payload byte on receipt.
//
// The raw-FM cells ("fm") are the denominators of the paper's efficiency
// figures (4 and 6) and the reference points of model_err_pct; they enter
// the engines through fm1/fm2's own Send/Extract, exactly as the calibrated
// measurement in internal/bench does.

// pollGap is the receiver's pause between empty polls, the cadence
// internal/bench calibrated the paper's figures with.
const pollGap = 500 * sim.Nanosecond

type cell struct {
	upper   string // fm | mpifm | sockfm | shmem | garr
	gen     xport.Gen
	pattern string // stream | pingpong
	size    int    // payload bytes per message
	n       int    // stream: messages; pingpong: round trips
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%s/%d", c.upper, c.gen, c.pattern, c.size)
}

// pt2ptSize scales the sweep: message counts are multiplied by scale/100.
type pt2ptSize struct{ scale int }

var pt2ptFull = pt2ptSize{scale: 100}

// cells lists the sweep. Upper-layer cells run at the three sizes that put
// one packet, a sub-MTU multi-header message and a multi-packet message on
// the wire; the raw FM 1.x stream adds 32-128 B, which N1/2 (paper: 54 B)
// is interpolated from.
func (sz pt2ptSize) cells() []cell {
	count := func(n int) int { return max(n*sz.scale/100, 12) }
	var cs []cell
	for _, gen := range []xport.Gen{xport.GenFM1, xport.GenFM2} {
		sizes := []int{16, 256, 2048}
		if gen == xport.GenFM1 {
			sizes = []int{16, 32, 64, 128, 256, 2048}
		}
		for _, s := range sizes {
			cs = append(cs, cell{"fm", gen, "stream", s, count(streamMsgs(s))})
		}
		cs = append(cs, cell{"fm", gen, "pingpong", 16, count(450)})
		for _, up := range []string{"mpifm", "sockfm", "shmem", "garr"} {
			for _, s := range []int{16, 256, 2048} {
				cs = append(cs, cell{up, gen, "stream", s, count(streamMsgs(s))})
				cs = append(cs, cell{up, gen, "pingpong", s, count(450)})
			}
		}
	}
	return cs
}

// streamMsgs is enough messages to amortize pipeline fill at each size.
func streamMsgs(size int) int {
	switch {
	case size <= 128:
		return 2200
	case size <= 256:
		return 1800
	}
	return 650
}

// cellOut is what one cell measured.
type cellOut struct {
	delivered, failed   int64
	payloadBytes        int64
	virt                sim.Time  // modelled time of the cell's traffic
	oneWayUS            []float64 // pingpong: one-way latency per round trip, virtual us
	events              uint64
	extracts, useful    int64 // raw-FM cells: Extract calls, and those that pulled >= 1 packet
	mpiRecvd, mpiDirect int64 // mpifm cells: Comm.Stats
	mpiHWM              int64
	errs                []string
	after               func() // collects results once the kernel has run
}

func (o *cellOut) mbps() float64 { return sim.MBps(o.payloadBytes, o.virt) }

func (o *cellOut) errf(format string, args ...any) {
	o.failed++
	if len(o.errs) < 4 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// spanName names a call's spans after the cell's message size. Drivers
// build the names once: the timed runs pass a nil recorder, and a name
// assembled per call would allocate on the path being measured.
func (c cell) spanName(call string) string { return call + "." + strconv.Itoa(c.size) }

// messages is how many deliveries a correct run of the cell makes.
func (c cell) messages() int64 {
	if c.pattern == "pingpong" {
		return 2 * int64(c.n)
	}
	return int64(c.n)
}

// buildCell assembles the cell's two-node machine and spawns its traffic.
func buildCell(c cell, seed int64, rec *recorder, out *cellOut) (*stack, error) {
	st, err := newStack(c.gen, 2, cluster.DirectPair)
	if err != nil {
		return nil, err
	}
	base := payload(seedFor(seed, c.String()), c.size)
	switch c.upper {
	case "fm":
		driveFM(st, c, base, rec, out)
	case "mpifm":
		driveMPI(st, c, base, rec, out)
	case "sockfm":
		driveSock(st, c, base, rec, out)
	case "shmem":
		driveShmem(st, c, base, rec, out)
	case "garr":
		driveGarr(st, c, base, rec, out)
	default:
		return nil, fmt.Errorf("unknown upper layer %q", c.upper)
	}
	return st, nil
}

// collect gathers a cell's results once its kernel has run, and checks them:
// every message delivered, and the machine quiet.
func (o *cellOut) collect(c cell, st *stack) {
	o.events = st.k.Events()
	if o.after != nil {
		o.after()
	}
	if o.delivered != c.messages() {
		o.errf("cell %s delivered %d of %d messages", c, o.delivered, c.messages())
	}
	for _, bad := range st.quiesce().check(c.String()) {
		o.errf("%s", bad)
	}
}

// runCell builds the cell's machine (set-up) and runs its traffic (measured),
// returning the two host durations.
func runCell(c cell, seed int64, rec *recorder, totals *pt2ptTotals) (out cellOut, setup, phase time.Duration, err error) {
	t0 := time.Now()
	st, err := buildCell(c, seed, rec, &out)
	if err != nil {
		return out, 0, 0, err
	}
	t1 := time.Now()
	if err := st.k.Run(); err != nil {
		return out, 0, 0, fmt.Errorf("cell %s: %w", c, err)
	}
	phase = time.Since(t1)
	out.collect(c, st)
	totals.add(c, st, &out)
	return out, t1.Sub(t0), phase, nil
}

// driveFM runs a raw-FM cell: the pattern over the generation's own
// Send/Extract, the rung the ladder calls fm1 or fm2.
func driveFM(st *stack, c cell, base []byte, rec *recorder, out *cellOut) {
	pt, pr := pairStream(c.n), port(nil)
	if c.pattern == "pingpong" {
		pt = pairPingpong(c.n)
	}
	if c.gen == xport.GenFM1 {
		pr = newFM1Port(st, c.size, base)
	} else {
		pr = newFM2Port(st, c.size, base)
	}
	ex := exchange(pt, pr, c.size, base, rec, c.gen.String())
	out.payloadBytes = ex.msgs * int64(c.size)
	out.after = func() {
		out.delivered = int64(pr.arrived(0, 1) + pr.arrived(1, 0))
		out.virt = ex.end
		out.extracts, out.useful = ex.polls, ex.useful
		for _, d := range ex.round0 {
			out.oneWayUS = append(out.oneWayUS, d.Micros()/2)
		}
		for _, e := range pr.problems() {
			out.errf("%s: %s", c, e)
		}
	}
}

func overheads(gen xport.Gen) mpifm.Overheads {
	if gen == xport.GenFM1 {
		return mpifm.SparcOverheads()
	}
	return mpifm.PProOverheads()
}

func driveMPI(st *stack, c cell, base []byte, rec *recorder, out *cellOut) {
	comms := mpifm.Attach(st.spaces(mpifm.Service), overheads(c.gen), mpifm.Options{})
	sendName, recvName := c.spanName("Comm.Send"), c.spanName("Comm.Recv")
	send := func(p *sim.Proc, rank, dst, i int, msg []byte) {
		flowStamp(msg, base, rank, dst, i)
		s := rec.begin(p, rank, 0, "mpifm", sendName, int64(i))
		if err := comms[rank].Send(p, msg, dst, 1); err != nil {
			out.errf("%s: send %d: %v", c, i, err)
		}
		rec.end(p, s)
	}
	want := make([]byte, c.size)
	recv := func(p *sim.Proc, rank, src, i int, buf []byte) {
		s := rec.begin(p, rank, 0, "mpifm", recvName, int64(i))
		stt, err := comms[rank].Recv(p, buf, src, 1)
		rec.end(p, s)
		flowStamp(want, base, src, rank, i)
		if err != nil || stt.Len != c.size || !bytes.Equal(buf, want) {
			out.errf("%s: message %d arrived altered (%v)", c, i, err)
		}
		out.delivered++
	}
	out.after = func() {
		for _, cm := range comms {
			s := cm.Stats()
			out.mpiRecvd, out.mpiDirect = out.mpiRecvd+s.Recvd, out.mpiDirect+s.Direct
			out.mpiHWM = max(out.mpiHWM, int64(s.UnexpectedHWM))
		}
	}
	var start sim.Time
	if c.pattern == "stream" {
		st.k.Spawn("rank0", func(p *sim.Proc) {
			msg := make([]byte, c.size)
			start = p.Now()
			for i := 0; i < c.n; i++ {
				send(p, 0, 1, i, msg)
			}
			st.settle(p, func() { st.eps[0].Extract(p, 0) })
		})
		st.k.Spawn("rank1", func(p *sim.Proc) {
			buf := make([]byte, c.size)
			for i := 0; i < c.n; i++ {
				recv(p, 1, 0, i, buf)
			}
			out.virt = p.Now() - start
			st.settle(p, func() { st.eps[1].Extract(p, 0) })
		})
		out.payloadBytes = int64(c.size) * int64(c.n)
		return
	}
	st.k.Spawn("rank0", func(p *sim.Proc) {
		msg, buf := make([]byte, c.size), make([]byte, c.size)
		start = p.Now()
		for i := 0; i < c.n; i++ {
			t := p.Now()
			send(p, 0, 1, i, msg)
			recv(p, 0, 1, i, buf)
			out.oneWayUS = append(out.oneWayUS, (p.Now()-t).Micros()/2)
		}
		out.virt = p.Now() - start
		st.settle(p, func() { st.eps[0].Extract(p, 0) })
	})
	st.k.Spawn("rank1", func(p *sim.Proc) {
		msg, buf := make([]byte, c.size), make([]byte, c.size)
		for i := 0; i < c.n; i++ {
			recv(p, 1, 0, i, buf)
			send(p, 1, 0, i, msg)
		}
		st.settle(p, func() { st.eps[1].Extract(p, 0) })
	})
	out.payloadBytes = 2 * int64(c.size) * int64(c.n)
}

// driveSock streams or echoes over one connection. A socket is a byte
// stream: every message is the cell's payload, so byte k of the stream must
// be base[k mod size] however Read cuts it.
func driveSock(st *stack, c cell, base []byte, rec *recorder, out *cellOut) {
	spaces := st.spaces(sockfm.Service)
	stacks := []*sockfm.Stack{sockfm.New(spaces[0]), sockfm.New(spaces[1])}
	writeName, readName := c.spanName("Conn.Write"), c.spanName("Conn.Read")
	write := func(p *sim.Proc, node, i int, conn *sockfm.Conn) {
		s := rec.begin(p, node, 0, "sockfm", writeName, int64(i))
		if _, err := conn.Write(p, base); err != nil {
			out.errf("%s: write %d: %v", c, i, err)
		}
		rec.end(p, s)
	}
	// readN reads exactly n stream bytes starting at stream offset off.
	readN := func(p *sim.Proc, node, i int, conn *sockfm.Conn, buf []byte, off, n int) bool {
		for got := 0; got < n; {
			s := rec.begin(p, node, 0, "sockfm", readName, int64(i))
			k, err := conn.Read(p, buf[:min(len(buf), n-got)])
			rec.end(p, s)
			if err != nil {
				out.errf("%s: read at byte %d: %v", c, off+got, err)
				return false
			}
			for j := 0; j < k; j++ {
				if buf[j] != base[(off+got+j)%c.size] {
					out.errf("%s: stream byte %d arrived altered", c, off+got+j)
					return false
				}
			}
			got += k
		}
		return true
	}
	var start sim.Time
	st.k.Spawn("server", func(p *sim.Proc) {
		l, err := stacks[0].Listen(80)
		if err != nil {
			out.errf("%s: listen: %v", c, err)
			return
		}
		conn, err := l.Accept(p)
		if err != nil {
			out.errf("%s: accept: %v", c, err)
			return
		}
		buf := make([]byte, 64*1024)
		if c.pattern == "stream" {
			if readN(p, 0, 0, conn, buf, 0, c.size*c.n) {
				out.delivered += int64(c.n)
			}
			out.virt = p.Now() - start
		} else {
			for i := 0; i < c.n; i++ {
				if readN(p, 0, i, conn, buf, i*c.size, c.size) {
					out.delivered++
				}
				write(p, 0, i, conn)
			}
		}
		// Read to EOF: the client's FIN is the last frame of the cell.
		if _, err := conn.Read(p, buf); err != io.EOF {
			out.errf("%s: expected EOF after the last message, got %v", c, err)
		}
		st.settle(p, func() { st.eps[0].Extract(p, 0) })
	})
	st.k.Spawn("client", func(p *sim.Proc) {
		conn, err := stacks[1].Dial(p, 0, 80)
		if err != nil {
			out.errf("%s: dial: %v", c, err)
			return
		}
		buf := make([]byte, 64*1024)
		start = p.Now()
		for i := 0; i < c.n; i++ {
			t := p.Now()
			write(p, 1, i, conn)
			if c.pattern == "pingpong" {
				if readN(p, 1, i, conn, buf, i*c.size, c.size) {
					out.delivered++
				}
				out.oneWayUS = append(out.oneWayUS, (p.Now()-t).Micros()/2)
			}
		}
		if c.pattern == "pingpong" {
			out.virt = p.Now() - start
		}
		if err := conn.Close(p); err != nil {
			out.errf("%s: close: %v", c, err)
		}
		st.settle(p, func() { st.eps[1].Extract(p, 0) })
	})
	out.payloadBytes = int64(c.size) * int64(c.n)
	if c.pattern == "pingpong" {
		out.payloadBytes *= 2
	}
}

// shmemSlots is how many message-sized slots a Put stream cycles through,
// so the target's region holds the last shmemSlots messages for checking.
const shmemSlots = 8

// driveShmem streams Puts (stream) or issues Gets (pingpong: a Get is a
// request and a payload-bearing response, SHMEM's round trip).
func driveShmem(st *stack, c cell, base []byte, rec *recorder, out *cellOut) {
	spaces := st.spaces(shmem.Service)
	n0, n1 := shmem.Attach(spaces[0]), shmem.Attach(spaces[1])
	region := make([]byte, c.size*shmemSlots)
	n0.Register(1, make([]byte, c.size*shmemSlots))
	n1.Register(1, region)
	putName, getName := c.spanName("Node.Put"), c.spanName("Node.Get")
	var start sim.Time
	if c.pattern == "stream" {
		st.k.Spawn("origin", func(p *sim.Proc) {
			msg := make([]byte, c.size)
			start = p.Now()
			for i := 0; i < c.n; i++ {
				flowStamp(msg, base, 0, 1, i)
				s := rec.begin(p, 0, 0, "shmem", putName, int64(i))
				if err := n0.Put(p, 1, 1, (i%shmemSlots)*c.size, msg); err != nil {
					out.errf("%s: put %d: %v", c, i, err)
				}
				rec.end(p, s)
				// Drain put acks as they arrive: an origin that never
				// progresses would wedge both sides' credit windows.
				n0.Progress(p)
			}
			s := rec.begin(p, 0, 0, "shmem", "Node.Quiet", int64(c.n))
			n0.Quiet(p)
			rec.end(p, s)
			st.settle(p, func() { n0.Progress(p) })
		})
		st.k.Spawn("target", func(p *sim.Proc) {
			for n1.Stats().RemotePuts < int64(c.n) {
				n1.Progress(p)
				p.Delay(pollGap)
			}
			out.virt = p.Now() - start
			want := make([]byte, c.size)
			for i := max(0, c.n-shmemSlots); i < c.n; i++ {
				flowStamp(want, base, 0, 1, i)
				if !bytes.Equal(region[(i%shmemSlots)*c.size:][:c.size], want) {
					out.errf("%s: put %d landed altered", c, i)
				}
			}
			out.delivered = n1.Stats().RemotePuts
			st.settle(p, func() { n1.Progress(p) })
		})
		out.payloadBytes = int64(c.size) * int64(c.n)
		return
	}
	copy(region, base)
	st.k.Spawn("origin", func(p *sim.Proc) {
		buf := make([]byte, c.size)
		start = p.Now()
		for i := 0; i < c.n; i++ {
			t := p.Now()
			s := rec.begin(p, 0, 0, "shmem", getName, int64(i))
			err := n0.Get(p, 1, 1, 0, buf)
			rec.end(p, s)
			if err != nil || !bytes.Equal(buf, base) {
				out.errf("%s: get %d returned altered data (%v)", c, i, err)
			}
			out.delivered += 2 // the request and the response
			out.oneWayUS = append(out.oneWayUS, (p.Now()-t).Micros()/2)
			for j := range buf {
				buf[j] = 0
			}
		}
		out.virt = p.Now() - start
		st.settle(p, func() { n0.Progress(p) })
	})
	st.k.Spawn("target", func(p *sim.Proc) {
		for n1.Stats().RemoteGetReqs < int64(c.n) {
			n1.Progress(p)
			p.Delay(pollGap)
		}
		st.settle(p, func() { n1.Progress(p) })
	})
	out.payloadBytes = int64(c.size) * int64(c.n)
}

// driveGarr writes (stream) or reads (pingpong) the remote block of a
// two-block global array: every Put/Get is one remote one-sided transfer.
func driveGarr(st *stack, c cell, base []byte, rec *recorder, out *cellOut) {
	elems := max(c.size/8, 1)
	spaces := st.spaces(garr.Service)
	a0, err0 := garr.Attach(spaces[0], 1, 2*elems, 2)
	a1, err1 := garr.Attach(spaces[1], 1, 2*elems, 2)
	if err0 != nil || err1 != nil {
		out.errf("%s: attach: %v %v", c, err0, err1)
		return
	}
	vals := make([]float64, elems) // the seeded payload, read as small integers
	for i := range vals {
		vals[i] = float64(binary.LittleEndian.Uint32(base[8*i:]))
	}
	putName, getName := c.spanName("Array.Put"), c.spanName("Array.Get")
	var start sim.Time
	target := func(done func() bool) {
		st.k.Spawn("target", func(p *sim.Proc) {
			for !done() {
				a1.Progress(p)
				p.Delay(pollGap)
			}
			if c.pattern == "stream" {
				out.virt = p.Now() - start
				got := a1.Local()
				for i := range vals {
					if got[i] != vals[i]+float64(c.n-1) {
						out.errf("%s: element %d of the last put landed as %v", c, i, got[i])
						break
					}
				}
				out.delivered = a1.Node().Stats().RemotePuts
			}
			st.settle(p, func() { a1.Progress(p) })
		})
	}
	if c.pattern == "stream" {
		st.k.Spawn("origin", func(p *sim.Proc) {
			msg := make([]float64, elems)
			start = p.Now()
			for i := 0; i < c.n; i++ {
				for j := range msg {
					msg[j] = vals[j] + float64(i)
				}
				s := rec.begin(p, 0, 0, "garr", putName, int64(i))
				if err := a0.Put(p, elems, msg); err != nil {
					out.errf("%s: put %d: %v", c, i, err)
				}
				rec.end(p, s)
			}
			st.settle(p, func() { a0.Progress(p) })
		})
		target(func() bool { return a1.Node().Stats().RemotePuts >= int64(c.n) })
		out.payloadBytes = int64(elems) * 8 * int64(c.n)
		return
	}
	a1.SetLocal(vals)
	st.k.Spawn("origin", func(p *sim.Proc) {
		got := make([]float64, elems)
		start = p.Now()
		for i := 0; i < c.n; i++ {
			t := p.Now()
			s := rec.begin(p, 0, 0, "garr", getName, int64(i))
			err := a0.Get(p, elems, got)
			rec.end(p, s)
			for j := range got {
				if err != nil || got[j] != vals[j] {
					out.errf("%s: get %d returned altered data (%v)", c, i, err)
					break
				}
				got[j] = 0
			}
			out.delivered += 2
			out.oneWayUS = append(out.oneWayUS, (p.Now()-t).Micros()/2)
		}
		out.virt = p.Now() - start
		st.settle(p, func() { a0.Progress(p) })
	})
	target(func() bool { return a1.Node().Stats().RemoteGetReqs >= int64(c.n) })
	out.payloadBytes = int64(elems) * 8 * int64(c.n)
}

// pt2ptTotals accumulates the layer counters the sweep's per-layer ratios
// are built from: fm1 cells and fm2 cells apart, because the paper's copy
// tax lives in the difference.
type pt2ptTotals struct {
	byGen map[xport.Gen]*genTotals
}

type genTotals struct {
	msgs, pkts              int64 // FM messages and data packets sent
	payload                 int64 // useful payload bytes delivered
	memcpys, memcpyBytes    int64
	busBytes                int64
	linkPkts, wireBytes     int64
	ctrlRecv, dataRecv      int64
	poolGets, poolAllocs    int64
	svcBytes, endpointBytes int64
	recvd, direct, hwm      int64 // mpifm
}

func (t *pt2ptTotals) add(c cell, st *stack, out *cellOut) {
	if t.byGen == nil {
		t.byGen = map[xport.Gen]*genTotals{}
	}
	g := t.byGen[c.gen]
	if g == nil {
		g = &genTotals{}
		t.byGen[c.gen] = g
	}
	ft := st.fmTotals()
	g.msgs += ft.msgsSent
	g.pkts += ft.pktsSent
	g.payload += out.payloadBytes
	if c.upper != "fm" { // raw-FM cells bypass xport: no service to share with
		g.endpointBytes += ft.bytesRecvd
	}
	g.recvd, g.direct, g.hwm = g.recvd+out.mpiRecvd, g.direct+out.mpiDirect, max(g.hwm, out.mpiHWM)
	for i, h := range st.pl.Hosts {
		hs := h.Stats()
		g.memcpys += hs.Memcpys
		g.memcpyBytes += hs.MemcpyBytes
		g.busBytes += hs.BusBytes
		ns := st.pl.NICs[i].Stats()
		g.ctrlRecv += ns.CtrlRecv
		g.dataRecv += ns.Received
		d, ctl := st.poolStats(i)
		g.poolGets += d.Gets + ctl.Gets
		g.poolAllocs += d.Allocs + ctl.Allocs
		for _, svc := range st.eps[i].Services() {
			g.svcBytes += st.eps[i].ServiceStats(svc).Bytes
		}
	}
	for _, l := range st.pl.Net.Links() {
		ls := l.Stats()
		g.linkPkts += ls.Packets
		g.wireBytes += ls.WireBytes
	}
}

// paperRef is one reference point of the paper, as pinned in
// internal/bench/calib_test.go.
type paperRef struct {
	name  string
	paper float64
	floor bool // the paper gives a lower bound: only a shortfall is an error
}

var paperRefs = []paperRef{
	{"fm1.peak_mbps", 17.6, false},
	{"fm1.nhalf_b", 54, false},
	{"fm1.latency_us", 14, false},
	{"fm2.peak_mbps", 77, false},
	{"fm2.latency_us", 11, false},
	{"mpifm2.peak_mbps", 70, false},
	{"mpifm2.latency_us", 17, false},
	{"mpifm2.efficiency_pct.16", 70, true},
}

func runPt2pt(sz pt2ptSize) func(seed int64, rec *recorder) (rep, error) {
	return func(seed int64, rec *recorder) (rep, error) {
		r := rep{exact: map[string]float64{}}
		clk := startRep()
		clk.beginPhase()
		var (
			setup, phase time.Duration
			virt         sim.Time
			tot          pt2ptTotals
			bw           = map[string]float64{}   // stream cells: MB/s
			lat          = map[string][]float64{} // pingpong cells: one-way us
			extracts     = map[xport.Gen][2]int64{}
		)
		for _, c := range sz.cells() {
			out, su, ph, err := runCell(c, seed, rec, &tot)
			if err != nil {
				return r, err
			}
			setup, phase = setup+su, phase+ph
			virt += out.virt
			r.events += out.events
			r.ops += c.messages()
			r.failed += min(out.failed+c.messages()-out.delivered, c.messages())
			r.problems = append(r.problems, out.errs...)
			if c.pattern == "stream" {
				bw[c.String()] = out.mbps()
			} else {
				lat[c.String()] = out.oneWayUS
			}
			if c.upper == "fm" && c.pattern == "stream" {
				e := extracts[c.gen]
				extracts[c.gen] = [2]int64{e[0] + out.extracts, e[1] + out.useful}
			}
			r.exact["cell."+c.String()+".virt_us"] = out.virt.Micros()
		}
		clk.finish(&r)
		r.setup, r.phase = setup, phase

		r.exact["virt_time_us"] = virt.Micros()
		r.exact["sim.events"] = float64(r.events)
		r.setLatency(summarize(lat["mpifm/fm2/pingpong/16"]))
		r.exact["virt_goodput_mbps"] = bw["mpifm/fm2/stream/2048"]

		// The paper's Figures 4 and 6: each upper layer's bandwidth as a
		// share of raw FM's on the same generation.
		for _, e := range []struct {
			up, gen string
			size    int
		}{
			{"mpifm", "fm1", 16}, {"mpifm", "fm1", 2048}, {"mpifm", "fm2", 16}, {"mpifm", "fm2", 2048},
			{"sockfm", "fm2", 2048}, {"shmem", "fm2", 2048}, {"garr", "fm2", 2048},
		} {
			s := strconv.Itoa(e.size)
			r.exact[e.up+".efficiency_pct."+e.gen+"."+s] =
				100 * bw[e.up+"/"+e.gen+"/stream/"+s] / bw["fm/"+e.gen+"/stream/"+s]
		}
		fm1Curve := bench.Curve{}
		for _, s := range []int{16, 32, 64, 128, 256, 2048} {
			fm1Curve = append(fm1Curve, bench.Point{Size: s, MBps: bw["fm/fm1/stream/"+strconv.Itoa(s)]})
		}
		fm1Lat, fm2Lat := median(lat["fm/fm1/pingpong/16"]), median(lat["fm/fm2/pingpong/16"])
		r.exact["fm1.virt_bw_mbps.2048"] = bw["fm/fm1/stream/2048"]
		r.exact["fm2.virt_bw_mbps.2048"] = bw["fm/fm2/stream/2048"]
		r.exact["fm1.virt_lat_us"], r.exact["fm2.virt_lat_us"] = fm1Lat, fm2Lat
		got := map[string]float64{
			"fm1.peak_mbps": fm1Curve.Peak(), "fm1.nhalf_b": float64(fm1Curve.NHalf()), "fm1.latency_us": fm1Lat,
			"fm2.peak_mbps":            max(bw["fm/fm2/stream/256"], bw["fm/fm2/stream/2048"]),
			"fm2.latency_us":           fm2Lat,
			"mpifm2.peak_mbps":         max(bw["mpifm/fm2/stream/256"], bw["mpifm/fm2/stream/2048"]),
			"mpifm2.latency_us":        median(lat["mpifm/fm2/pingpong/16"]),
			"mpifm2.efficiency_pct.16": r.exact["mpifm.efficiency_pct.fm2.16"],
		}
		var errSum float64
		for _, ref := range paperRefs {
			e := 100 * (got[ref.name] - ref.paper) / ref.paper
			if ref.floor && e > 0 {
				e = 0
			}
			if e < 0 {
				e = -e
			}
			errSum += e
			r.exact["model."+ref.name] = got[ref.name]
		}
		r.exact["model_err_pct"] = errSum / float64(len(paperRefs))
		if r.exact["model_err_pct"] > modelErrLimitPct {
			r.failf("model_err_pct %.2f exceeds %.0f: the simulated machine no longer matches the paper's", r.exact["model_err_pct"], modelErrLimitPct)
		}

		for gen, name := range map[xport.Gen]string{xport.GenFM1: "fm1", xport.GenFM2: "fm2"} {
			g := tot.byGen[gen]
			r.exact[name+".pkts_per_msg"] = ratio(g.pkts, g.msgs)
			e := extracts[gen]
			r.exact[name+".extract_useful_ratio"] = ratio(e[1], e[0])
		}
		// The paper's copy tax: host copies and bus traffic per useful
		// payload byte on the FM 1.x cells; the FM 2.x figure rides along
		// under the trace's counters.
		g1, g2 := tot.byGen[xport.GenFM1], tot.byGen[xport.GenFM2]
		r.exact["hostmodel.memcpys_per_msg"] = ratio(g1.memcpys, g1.msgs)
		r.exact["hostmodel.memcpy_bytes_per_payload_byte"] = ratio(g1.memcpyBytes, g1.payload)
		r.exact["hostmodel.bus_bytes_per_payload_byte"] = ratio(g1.busBytes, g1.payload)
		rec.count("end", "hostmodel.memcpys_per_msg.fm2", ratio(g2.memcpys, g2.msgs))
		rec.count("end", "hostmodel.memcpy_bytes_per_payload_byte.fm2", ratio(g2.memcpyBytes, g2.payload))
		rec.count("end", "hostmodel.bus_bytes_per_payload_byte.fm2", ratio(g2.busBytes, g2.payload))
		r.exact["netsim.link_pkts_per_msg"] = ratio(g1.linkPkts+g2.linkPkts, g1.msgs+g2.msgs)
		r.exact["netsim.wire_bytes_per_payload_byte"] = ratio(g1.wireBytes+g2.wireBytes, g1.payload+g2.payload)
		r.exact["netsim.pool_recycle_ratio"] = ratio(g1.poolGets+g2.poolGets-g1.poolAllocs-g2.poolAllocs, g1.poolGets+g2.poolGets)
		r.exact["lanai.ctrl_per_data_pkt"] = ratio(g1.ctrlRecv+g2.ctrlRecv, g1.dataRecv+g2.dataRecv)
		r.exact["xport.svc_bytes_share"] = 100 * ratio(g1.svcBytes+g2.svcBytes, g1.endpointBytes+g2.endpointBytes)
		r.exact["mpifm.direct_ratio"] = ratio(g1.direct+g2.direct, g1.recvd+g2.recvd)
		r.exact["mpifm.unexpected_hwm"] = float64(max(g1.hwm, g2.hwm))
		r.exact["flowctl.outstanding_at_quiesce"] = 0 // every cell checked it; a nonzero cell is a failed check
		return r, nil
	}
}

// modelErrLimitPct is the output check on model fidelity: a repetition whose
// mean absolute error against the paper's reference points exceeds it is
// incorrect. The limit is a ceiling over the value measured when the
// benchmark was defined (see README.md), not a target.
const modelErrLimitPct = 15.0

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// pt2ptLayers runs the two-node ladder and reads the raw-FM call spans of
// the traced repetition: the modelled cost of one Send and one Extract of a
// 2048 B message, as the driver saw them.
func pt2ptLayers(sz pt2ptSize) func(seed int64, rec *recorder, m layerMetrics) ([]string, error) {
	return func(seed int64, rec *recorder, m layerMetrics) ([]string, error) {
		m["fm1.send_virt_us"] = rec.spanMedianVirtUS("fm1", "send.2048")
		m["fm2.send_virt_us"] = rec.spanMedianVirtUS("fm2", "send.2048")
		m["fm2.extract_virt_us"] = rec.spanMedianVirtUS("fm2", "recv.2048")
		return pairLadder(sz, seed, rec, m)
	}
}
