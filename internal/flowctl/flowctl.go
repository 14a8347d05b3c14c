// Package flowctl implements what FM 2.x kept from FM 1.x (paper §4), first
// of all the credit flow control. Each sender holds a window of packet
// credits per destination, sized so that the receiver's pinned ring can never
// overflow; the receiver returns credits in batches as Extract frees ring
// slots. This is the "flow control and buffer management are all Myrinet
// needs for reliable, in-order delivery" design of paper §3.1. Manager is the
// ledger, kept sparse: a node holds an entry (Peers) only for the peers it has
// sent to or extracted from, so an allreduce rank pays for its ⌈log₂ N⌉
// partners, not for N. Plane is the protocol around it (control frames,
// blocking for credits, return and idle flush); EndpointCore is the endpoint
// around that (host and NIC, frame pool, counters, header layout, the
// per-packet send and extract steps), which both FM engines embed one copy
// of.
//
// An engine-level change — a per-packet charge, a header field, a trace
// hook, a pool mode, a validation rule — goes into EndpointCore, once. The
// engines keep their extract loops and call the core per packet; neither
// polls the kernel, builds a frame pool or sets its mode itself. They bump
// Count.PacketsRecvd only after they are done with a packet, because
// co-resident extractors read it as a progress meter.
//
// A blocked caller's idle test (Waiter.Idle) reads its own node only — the
// receive ring, the credit ledger and the caller's Cond — and says how long
// its verdict stands (Waiter.Stands): until the node acts, unless the Cond
// reads the clock or other nodes. The kernel does not ask again before then,
// so the own-node read bears on results, not just on speed.
package flowctl

import "math"

// Manager tracks credits for one endpoint in a cluster of n nodes. The
// ledger is sparse: a peer has an entry from the first credit spent toward it
// or the first ring slot its packets freed, and a peer never talked to holds
// the whole window and owes nothing, so a node costs what it talks to, not n.
type Manager struct {
	window int
	nodes  int
	peers  Peers[peer]
	// dirty lists sources with freed > 0 (unordered; peer.dirty is the
	// membership flag) so idle-poll flushing costs O(pending), not O(n) —
	// at thousands of nodes a per-poll peer scan would dominate the
	// event loop.
	dirty []int
	// Counters for tests and benches.
	CreditsSent  int64
	CreditsRecvd int64
}

// peer is the ledger's entry for one peer. Credits are stored as consumed,
// not available, so that the zero value is the idle state: the whole window
// in hand, nothing freed, nothing pending.
type peer struct {
	consumed int32 // credits spent toward the peer and not yet refilled: window − available
	freed    int32 // ring slots freed for the peer's packets, not yet returned
	dirty    bool  // on Manager.dirty
}

// MinWindow is the smallest per-destination window at which credit-return
// traffic stays amortized. NoteFreed batches returns at half-window
// granularity, so a window below 4 makes the (window+1)/2 threshold hit
// after every packet or two — one control packet per data packet, a
// pathological storm at exactly the cluster sizes where the safety clamp
// in New bites. Platform assembly (cluster.New) grows the receive ring
// with the node count so the clamp never drops an endpoint below this
// floor; see RingSlotsFor.
const MinWindow = 4

// MaxNodes is the largest cluster the wire format can address: the FM 1.x
// and FM 2.x data headers and the credit frame all carry the source node in
// a uint16 (bytes 2-3; fm2 also packs it into the high half of a 32-bit
// reassembly key). One node more and sources alias: credit refills go to
// peers that never spent them.
const MaxNodes = 1 << 16

// MaxHeader is the longest data header of any FM generation (FM 2.x's 16
// bytes; FM 1.x's is 12). A machine's PacketMTU must hold it and one payload
// byte, so that one profile is valid under either engine.
const MaxHeader = 16

// MaxPacketMTU is the longest packet whose payload fits the 16-bit
// fragment-length field under either FM generation's header. FM 1.x's
// 12-byte header, the shorter, leaves the most payload: 65 535 bytes. One
// byte more and a fragment's length wraps: FM 1.x delivers a truncated
// message, and FM 2.x waits forever for the bytes the wrap lost.
const MaxPacketMTU = 12 + 1<<16 - 1

// RingSlotsFor reports the receive-ring depth needed so that every one of
// the n-1 peers of an n-node cluster can hold a window of at least
// min(window, MinWindow) packets without the ring overflowing.
func RingSlotsFor(n, window int) int {
	if window > MinWindow {
		window = MinWindow
	}
	if n <= 1 {
		return window
	}
	return window * (n - 1)
}

// New creates a Manager for node self in an n-node cluster. window is the
// per-destination credit window in packets; ringSlots bounds the sum of all
// windows directed at this node so the ring cannot overflow.
//
// When window*(n-1) exceeds ringSlots the window is clamped to
// ringSlots/(n-1) (floor 1) — ring safety beats throughput. Callers sizing
// real platforms should grow ringSlots with n (cluster.New does) so the
// clamped window never falls below MinWindow; Window reports the effective
// value after clamping. A window is at most math.MaxInt32 packets, far past
// any ring a run could fill.
func New(n, self, window, ringSlots int) *Manager {
	if n > 1 && window*(n-1) > ringSlots {
		window = ringSlots / (n - 1)
	}
	window = min(max(window, 1), math.MaxInt32)
	m := &Manager{window: window, nodes: n}
	// A node holds no credits toward itself: its one entry from the start.
	m.peers.At(self).consumed = int32(window)
	return m
}

// Window reports the effective per-destination window.
func (m *Manager) Window() int { return m.window }

// Nodes reports the cluster size the manager was built for — the bound
// engines use to validate source fields before indexing credit state.
func (m *Manager) Nodes() int { return m.nodes }

// entry returns node's entry, adding it if node has none; find returns it
// without adding, and the idle entry for a node that has none.
func (m *Manager) entry(node int) *peer {
	m.check(node)
	return m.peers.At(node)
}

func (m *Manager) find(node int) peer {
	m.check(node)
	if e := m.peers.Find(node); e != nil {
		return *e
	}
	return peer{}
}

func (m *Manager) check(node int) {
	if uint(node) >= uint(m.nodes) {
		panic("flowctl: node out of range")
	}
}

// Available reports current credits toward dst.
func (m *Manager) Available(dst int) int { return m.window - int(m.find(dst).consumed) }

// Consume takes one credit toward dst; it reports false when none remain
// (the caller must then service control traffic and retry).
func (m *Manager) Consume(dst int) bool {
	e := m.entry(dst)
	if int(e.consumed) >= m.window {
		return false
	}
	e.consumed++
	return true
}

// Refill adds n returned credits toward dst (a credit packet arrived).
func (m *Manager) Refill(dst, n int) {
	e := m.entry(dst)
	m.CreditsRecvd += int64(n)
	if int(e.consumed) < n {
		panic("flowctl: credit overflow — receiver returned more slots than the window")
	}
	e.consumed -= int32(n)
}

// NoteFreed records that one ring slot holding a packet from src was freed
// by Extract. It reports (count, true) when a credit-return packet should
// be sent now — at half-window granularity, amortizing return traffic.
func (m *Manager) NoteFreed(src int) (int, bool) {
	e := m.entry(src)
	e.freed++
	if int(e.freed) >= (m.window+1)/2 {
		n := int(e.freed)
		e.freed = 0
		m.CreditsSent += int64(n)
		return n, true
	}
	if !e.dirty {
		e.dirty = true
		m.dirty = append(m.dirty, src)
	}
	return 0, false
}

// TakeDirty pops the lowest-numbered source holding an unreturned partial
// batch and flushes it, reporting false when none is pending. The empty
// check is O(1), so engines may call this on every idle poll; lowest-first
// order matches an ascending peer scan, keeping flush order — and with it
// event order — deterministic. A source whose batch was already emitted by
// NoteFreed's threshold is skipped lazily.
func (m *Manager) TakeDirty() (src, n int, ok bool) {
	for len(m.dirty) > 0 {
		lo := 0
		for i, s := range m.dirty {
			if s < m.dirty[lo] {
				lo = i
			}
		}
		s := m.dirty[lo]
		m.dirty[lo] = m.dirty[len(m.dirty)-1]
		m.dirty = m.dirty[:len(m.dirty)-1]
		e := m.peers.Find(s)
		e.dirty = false
		if e.freed > 0 {
			c := int(e.freed)
			e.freed = 0
			m.CreditsSent += int64(c)
			return s, c, true
		}
	}
	return 0, 0, false
}

// Dirty reports whether TakeDirty has anything to look at — O(1), and true
// for an entry it would skip, so "not Dirty" is a safe "nothing to flush".
func (m *Manager) Dirty() bool { return len(m.dirty) > 0 }

// Outstanding reports packets in flight toward dst (window minus credits) —
// the invariant checked by flow-control tests.
func (m *Manager) Outstanding(dst int) int { return int(m.find(dst).consumed) }
