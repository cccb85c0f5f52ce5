package netsim

import (
	"maps"
	"slices"
	"time"
)

// This file is the fabric half of the world-reuse lifecycle
// (testbed.Reset): a Mark captures the Network's rewound state at a
// known-good instant — virtual clock position plus netState (sequence
// counters, hot-path statistics, the MAC allocation watermark) — and
// ResetTo rewinds the fabric to exactly that state. Switches get the
// same treatment with Snapshot/RestoreSnapshot over switchState, so a
// pooled world replays client bring-up byte-identically to a freshly
// built one (every MAC, every flood decision and every same-instant
// ordering tie comes out the same).

// Mark is an opaque snapshot of a Network's dynamic state, captured
// with Network.Mark and restored with Network.ResetTo.
type Mark struct {
	s        netState
	now      time.Time
	clockSeq uint64
	ringNICs int
}

// clone returns a copy of s. Every field is a value, so the plain copy
// is already deep.
func (s netState) clone() netState { return s }

// Mark captures the fabric's dynamic state at the current instant. The
// caller is responsible for capturing it at a quiescent point: pending
// events and timers are NOT recorded (ResetTo drops whatever is pending
// and the owner re-arms its own periodic timers).
func (n *Network) Mark() Mark {
	return Mark{s: n.netState.clone(), now: n.Clock.now, clockSeq: n.Clock.seq, ringNICs: len(n.ringNICs)}
}

// ResetTo rewinds the fabric to a previously captured Mark: pending
// events, timers and ring contents are dropped, counters and sequence
// numbers restore to their at-mark values, the MAC allocator rewinds so
// the next allocation repeats the first post-mark one, and the virtual
// clock lands on exactly the mark's instant. NICs registered for ring
// service after the mark are forgotten (their owners are expected to be
// discarded by the caller); earlier rings keep their warmed-up storage.
func (n *Network) ResetTo(m Mark) {
	n.stopped = false
	n.queue = nil
	n.clearRings()
	clear(n.ringNICs[m.ringNICs:])
	n.ringNICs = n.ringNICs[:m.ringNICs]
	n.arena.recycle()
	n.netState = m.s.clone()

	n.Clock.reset()
	n.Clock.advance(m.now)
	n.Clock.seq = m.clockSeq
}

// SwitchSnapshot is an opaque copy of a switch's dynamic forwarding
// state (Switch.Snapshot / Switch.RestoreSnapshot).
type SwitchSnapshot struct {
	s        switchState
	nPorts   int
	nFilters int
}

// clone deep-copies s. Group membership sets are held by pointer, so
// each is copied into a fresh set.
func (s switchState) clone() switchState {
	c := s
	c.table = maps.Clone(s.table)
	c.restricted = slices.Clone(s.restricted)
	c.wantARP = slices.Clone(s.wantARP)
	c.wantIPv4 = slices.Clone(s.wantIPv4)
	c.wantIPv6 = slices.Clone(s.wantIPv6)
	c.trunks = slices.Clone(s.trunks)
	c.detached = slices.Clone(s.detached)
	c.freePorts = slices.Clone(s.freePorts)
	if s.groups != nil {
		c.groups = make(map[MAC]*portSet, len(s.groups))
		for g, ps := range s.groups {
			cp := slices.Clone(*ps)
			c.groups[g] = &cp
		}
	}
	return c
}

// Snapshot deep-copies the switch's dynamic state: learned MAC table,
// snooped interest bitsets, group membership, free-slot list, counters,
// and the current port- and filter-table lengths.
func (s *Switch) Snapshot() *SwitchSnapshot {
	return &SwitchSnapshot{s: s.switchState.clone(), nPorts: len(s.ports), nFilters: len(s.filters)}
}

// RestoreSnapshot rewinds the switch to a snapshot taken earlier on the
// same switch: ports attached since the snapshot are uncabled and their
// slots dropped, filters added since are removed, and the learned
// table, interest bitsets, group membership and counters all restore to
// their at-snapshot values. Slots that were detached (parked) at
// snapshot time are uncabled again even if a later tenant reused them.
func (s *Switch) RestoreSnapshot(sn *SwitchSnapshot) {
	for i, port := range s.ports {
		if (i >= sn.nPorts || sn.s.detached.has(i)) && port.peer != nil {
			port.peer.peer = nil
			port.peer = nil
		}
	}
	clear(s.ports[sn.nPorts:])
	s.ports = s.ports[:sn.nPorts]
	s.filters = s.filters[:sn.nFilters]
	s.switchState = sn.s.clone()
}
