package hoststack

import (
	"net/netip"
	"sync"
)

// This file is the host memory diet: million-client worlds cannot afford
// a full Host (nine maps, a NIC, an event log — kilobytes) per client
// that has not acted yet. Instead, a registered client is one row in a
// struct-of-arrays Table — a flyweight BehaviorID for the immutable
// profile plus a few dozen bytes of mutable state (lease address,
// primary IPv6 address, protocol sequence counters). The full Host is
// materialized lazily when the client first acts and parked (state
// saved back to its row, timers stopped, port released) when it goes
// idle again.

// BehaviorID is a flyweight handle for an interned Behavior. Profiles
// are drawn from a small canned set, so a 2-byte ID replaces the
// ~100-byte struct in every per-client record.
type BehaviorID uint16

// behaviorRegistry interns Behaviors; Behavior is comparable (bools and
// strings only), so a map dedupes structurally identical profiles.
var behaviorRegistry = struct {
	sync.RWMutex
	ids  map[Behavior]BehaviorID
	list []Behavior
}{ids: make(map[Behavior]BehaviorID)}

// InternBehavior returns the canonical ID for b, registering it on
// first sight. Safe for concurrent use (sharded worlds intern from
// worker goroutines).
func InternBehavior(b Behavior) BehaviorID {
	behaviorRegistry.RLock()
	id, ok := behaviorRegistry.ids[b]
	behaviorRegistry.RUnlock()
	if ok {
		return id
	}
	behaviorRegistry.Lock()
	defer behaviorRegistry.Unlock()
	if id, ok := behaviorRegistry.ids[b]; ok {
		return id
	}
	id = BehaviorID(len(behaviorRegistry.list))
	behaviorRegistry.ids[b] = id
	behaviorRegistry.list = append(behaviorRegistry.list, b)
	return id
}

// BehaviorByID returns the interned Behavior for id.
func BehaviorByID(id BehaviorID) Behavior {
	behaviorRegistry.RLock()
	defer behaviorRegistry.RUnlock()
	return behaviorRegistry.list[id]
}

// SeqState is the per-host protocol sequence state (DHCP transaction
// ID, DNS message ID, ICMP echo ID) that must survive a park/rewake
// cycle so a re-materialized host keeps issuing fresh identifiers.
type SeqState struct {
	DHCPXID uint32
	DNSID   uint16
	PingID  uint16
}

// rowEverActive is the row flag marking a row that has been
// materialized at least once (its saved SeqState and addresses are
// meaningful).
const rowEverActive uint8 = 1

// Table is the struct-of-arrays store for registered clients. Each row
// costs ~31 bytes plus a share of the slice headers; one million
// registered clients fit in a few tens of megabytes. The Table holds no
// names: callers derive a client's name from its row index, which costs
// nothing until the client materializes.
type Table struct {
	profile []BehaviorID
	seq     []SeqState
	v4      [][4]byte
	v6      [][16]byte
	flags   []uint8
}

// NewTable returns a Table pre-sized for n rows.
func NewTable(n int) *Table {
	return &Table{
		profile: make([]BehaviorID, 0, n),
		seq:     make([]SeqState, 0, n),
		v4:      make([][4]byte, 0, n),
		v6:      make([][16]byte, 0, n),
		flags:   make([]uint8, 0, n),
	}
}

// Add registers a client row with the given profile and returns its
// index.
func (t *Table) Add(profile BehaviorID) int {
	t.profile = append(t.profile, profile)
	t.seq = append(t.seq, SeqState{})
	t.v4 = append(t.v4, [4]byte{})
	t.v6 = append(t.v6, [16]byte{})
	t.flags = append(t.flags, 0)
	return len(t.profile) - 1
}

// Len returns the number of registered rows.
func (t *Table) Len() int { return len(t.profile) }

// SetProfile records row i's profile (worlds that register rows before
// the population mix is drawn overwrite the placeholder here).
func (t *Table) SetProfile(i int, id BehaviorID) { t.profile[i] = id }

// Profile returns row i's full Behavior (via the flyweight registry).
func (t *Table) Profile(i int) Behavior { return BehaviorByID(t.profile[i]) }

// Seq returns row i's saved sequence counters.
func (t *Table) Seq(i int) SeqState { return t.seq[i] }

// V4 returns row i's last-known IPv4 lease address (invalid when none).
func (t *Table) V4(i int) netip.Addr {
	if t.v4[i] == ([4]byte{}) {
		return netip.Addr{}
	}
	return netip.AddrFrom4(t.v4[i])
}

// V6 returns row i's last-known primary global IPv6 address (invalid
// when none).
func (t *Table) V6(i int) netip.Addr {
	if t.v6[i] == ([16]byte{}) {
		return netip.Addr{}
	}
	return netip.AddrFrom16(t.v6[i])
}

// MarkMaterialized seeds h with row i's saved sequence counters, so
// identifier streams continue across park cycles, and flags the row as
// ever active.
func (t *Table) MarkMaterialized(i int, h *Host) {
	if t.flags[i]&rowEverActive != 0 {
		h.SetSequenceState(t.seq[i])
	}
	t.flags[i] |= rowEverActive
}

// Park saves h's mutable state back into row i.
// The caller remains responsible for detaching the host's port.
func (t *Table) Park(i int, h *Host) {
	t.seq[i] = h.SequenceState()
	t.v4[i] = [4]byte{}
	if a := h.IPv4Addr(); a.IsValid() && a.Is4() {
		t.v4[i] = a.As4()
	}
	t.v6[i] = [16]byte{}
	if gs := h.IPv6GlobalAddrs(); len(gs) > 0 {
		t.v6[i] = gs[0].As16()
	}
}

// SequenceState snapshots the host's protocol identifier counters.
func (h *Host) SequenceState() SeqState {
	return SeqState{DHCPXID: h.dhcpXIDSeq, DNSID: h.dnsIDSeq, PingID: h.pingIDSeq}
}

// SetSequenceState restores previously saved identifier counters.
func (h *Host) SetSequenceState(s SeqState) {
	h.dhcpXIDSeq, h.dnsIDSeq, h.pingIDSeq = s.DHCPXID, s.DNSID, s.PingID
}

// StopTimers cancels the host's persistent timers (DHCP retransmit and
// renew — the only ones a quiescent host keeps armed) so a parked host
// leaves nothing in the event loop.
func (h *Host) StopTimers() {
	if h.dhcp.retryTimer != nil {
		h.dhcp.retryTimer.Stop()
		h.dhcp.retryTimer = nil
	}
	if h.dhcp.renewTimer != nil {
		h.dhcp.renewTimer.Stop()
		h.dhcp.renewTimer = nil
	}
}
