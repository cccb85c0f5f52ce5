package hoststack

import (
	"maps"
	"slices"
)

// HostCheckpoint is an opaque deep copy of a Host's protocol state plus
// the length of its event log, captured with Host.Checkpoint and
// restored with Host.Restore for testbed world reuse. The capture
// contract matches netsim.Mark: the host must be quiescent (no DHCP
// retransmit/renew timers armed), which holds for infrastructure hosts
// with static IPv4 configuration.
//
// The transient tables — pending ND/ARP resolution queues, open TCP
// connections, accept hooks, in-flight pings and the RA memo — are not
// captured: at a quiescent instant they are empty, and Restore empties
// whatever accumulated since. The RA memo in particular is a derived
// cache, so a restored host re-verifies the first RA from each router
// exactly as a freshly built one does.
type HostCheckpoint struct {
	s       hostState
	nEvents int
}

// Checkpoint deep-copies the host's protocol state.
func (h *Host) Checkpoint() *HostCheckpoint {
	return &HostCheckpoint{h.hostState.clone(), len(h.Events)}
}

// Restore rewinds the host to a previously captured HostCheckpoint.
// Any DHCP timers the caller left armed must already be gone (the
// netsim clock reset drops them).
func (h *Host) Restore(c *HostCheckpoint) {
	h.hostState = c.s.clone()
	clear(h.ndPending)
	clear(h.arpPending)
	clear(h.tcpConns)
	clear(h.accepts)
	clear(h.pings)
	h.raMemos = nil
	h.Events = h.Events[:c.nEvents]
}

// clone deep-copies s. DHCP timer handles are dropped (a quiescent
// host has none armed) and a running CLAT is copied by value.
func (s hostState) clone() hostState {
	c := s
	c.v6Addrs = slices.Clone(s.v6Addrs)
	c.routers = slices.Clone(s.routers)
	c.rdnss = slices.Clone(s.rdnss)
	c.ndCache = maps.Clone(s.ndCache)
	c.v4Aliases = slices.Clone(s.v4Aliases)
	c.v4DNS = slices.Clone(s.v4DNS)
	c.arpCache = maps.Clone(s.arpCache)
	c.dhcp.renewTimer, c.dhcp.retryTimer = nil, nil
	if s.clat != nil {
		cp := *s.clat
		c.clat = &cp
	}
	c.clatPorts = maps.Clone(s.clatPorts)
	c.udpBind = maps.Clone(s.udpBind)
	c.listens = maps.Clone(s.listens)
	c.pmtu = maps.Clone(s.pmtu)
	c.DNSOverride = slices.Clone(s.DNSOverride)
	return c
}

// ResetRows rewinds every Table row to its just-registered state: the
// given placeholder profile, zero sequence counters, no remembered
// addresses and cleared lifecycle flags. Used by testbed world reuse to
// forget a run's population without reallocating the table.
func (t *Table) ResetRows(profile BehaviorID) {
	for i := range t.profile {
		t.profile[i] = profile
	}
	for i := range t.seq {
		t.seq[i] = SeqState{}
	}
	for i := range t.v4 {
		t.v4[i] = [4]byte{}
	}
	for i := range t.v6 {
		t.v6[i] = [16]byte{}
	}
	for i := range t.flags {
		t.flags[i] = 0
	}
}
