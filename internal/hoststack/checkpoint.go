package hoststack

import (
	"net/netip"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// HostCheckpoint is an opaque deep copy of a Host's mutable protocol
// state — addressing, neighbor/ARP caches, DHCP client state, socket
// tables, identifier sequences and the event log length — captured with
// Host.Checkpoint and restored with Host.Restore for testbed world
// reuse. The capture contract matches netsim.Mark: the host must be
// quiescent (no DHCP retransmit/renew timers armed), which holds for
// infrastructure hosts with static IPv4 configuration.
//
// The RA memo (verified Router Advertisement bytes per advertising
// router) is a derived cache, not protocol state: it is not captured,
// and Restore empties it, so a restored host holds exactly the state of
// a freshly built one and re-verifies the first RA from each router.
type HostCheckpoint struct {
	v6Addrs []V6Addr
	routers []routerEntry
	rdnss   []netip.Addr
	ndCache map[netip.Addr]netsim.MAC

	v4Addr    netip.Addr
	v4Aliases []netip.Addr
	v4Prefix  netip.Prefix
	v4Router  netip.Addr
	v4DNS     []netip.Addr
	v4Domain  string
	arpCache  map[netip.Addr]netsim.MAC

	dhcp        dhcpClient // timers nil'd at capture
	v6OnlyUntil time.Time
	clatPorts   map[portKey]bool

	udpBind map[uint16]UDPHandler
	udpNext uint16
	tcpNext uint16
	listens map[uint16]func(*TCPConn)

	dhcpXIDSeq uint32
	dnsIDSeq   uint16
	pingIDSeq  uint16

	pmtu        map[netip.Addr]int
	unreachRcvd uint64
	gleanND     bool
	nat64Prefix netip.Prefix
	dnsOverride []netip.Addr
	nEvents     int
}

func cloneMACMap(m map[netip.Addr]netsim.MAC) map[netip.Addr]netsim.MAC {
	out := make(map[netip.Addr]netsim.MAC, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Checkpoint deep-copies the host's mutable protocol state. Pending
// ND/ARP resolution queues, open TCP connections, accept hooks and
// in-flight pings are NOT captured — at a quiescent instant they are
// empty, and Restore drops whatever accumulated since.
func (h *Host) Checkpoint() *HostCheckpoint {
	c := &HostCheckpoint{
		v6Addrs: append([]V6Addr(nil), h.v6Addrs...),
		routers: append([]routerEntry(nil), h.routers...),
		rdnss:   append([]netip.Addr(nil), h.rdnss...),
		ndCache: cloneMACMap(h.ndCache),

		v4Addr:    h.v4Addr,
		v4Aliases: append([]netip.Addr(nil), h.v4Aliases...),
		v4Prefix:  h.v4Prefix,
		v4Router:  h.v4Router,
		v4DNS:     append([]netip.Addr(nil), h.v4DNS...),
		v4Domain:  h.v4Domain,
		arpCache:  cloneMACMap(h.arpCache),

		dhcp:        h.dhcp,
		v6OnlyUntil: h.v6OnlyUntil,

		udpNext: h.udpNext,
		tcpNext: h.tcpNext,

		dhcpXIDSeq: h.dhcpXIDSeq,
		dnsIDSeq:   h.dnsIDSeq,
		pingIDSeq:  h.pingIDSeq,

		unreachRcvd: h.UnreachRcvd,
		gleanND:     h.gleanND,
		nat64Prefix: h.nat64Prefix,
		dnsOverride: append([]netip.Addr(nil), h.DNSOverride...),
		nEvents:     len(h.Events),
	}
	c.dhcp.renewTimer = nil
	c.dhcp.retryTimer = nil
	if h.clatPorts != nil {
		c.clatPorts = make(map[portKey]bool, len(h.clatPorts))
		for k, v := range h.clatPorts {
			c.clatPorts[k] = v
		}
	}
	c.udpBind = make(map[uint16]UDPHandler, len(h.udpBind))
	for p, fn := range h.udpBind {
		c.udpBind[p] = fn
	}
	c.listens = make(map[uint16]func(*TCPConn), len(h.listens))
	for p, fn := range h.listens {
		c.listens[p] = fn
	}
	if h.pmtu != nil {
		c.pmtu = make(map[netip.Addr]int, len(h.pmtu))
		for a, m := range h.pmtu {
			c.pmtu[a] = m
		}
	}
	return c
}

// Restore rewinds the host to a previously captured HostCheckpoint.
// Any DHCP timers the caller left armed must already be gone (the
// netsim clock reset drops them); connection and resolution state that
// accumulated since the capture is discarded.
func (h *Host) Restore(c *HostCheckpoint) {
	h.v6Addrs = append(h.v6Addrs[:0], c.v6Addrs...)
	h.routers = append(h.routers[:0], c.routers...)
	h.rdnss = append(h.rdnss[:0], c.rdnss...)
	h.ndCache = cloneMACMap(c.ndCache)
	h.ndPending = make(map[netip.Addr][]*packet.IPv6)
	h.raMemos = nil

	h.v4Addr = c.v4Addr
	h.v4Aliases = append(h.v4Aliases[:0], c.v4Aliases...)
	h.v4Prefix = c.v4Prefix
	h.v4Router = c.v4Router
	h.v4DNS = append(h.v4DNS[:0], c.v4DNS...)
	h.v4Domain = c.v4Domain
	h.arpCache = cloneMACMap(c.arpCache)
	h.arpPending = make(map[netip.Addr][]*packet.IPv4)

	h.dhcp = c.dhcp
	h.v6OnlyUntil = c.v6OnlyUntil
	if c.clatPorts == nil {
		h.clatPorts = nil
	} else {
		h.clatPorts = make(map[portKey]bool, len(c.clatPorts))
		for k, v := range c.clatPorts {
			h.clatPorts[k] = v
		}
	}

	h.udpBind = make(map[uint16]UDPHandler, len(c.udpBind))
	for p, fn := range c.udpBind {
		h.udpBind[p] = fn
	}
	h.udpNext = c.udpNext
	h.tcpConns = make(map[tcpKey]*TCPConn)
	h.tcpNext = c.tcpNext
	h.listens = make(map[uint16]func(*TCPConn), len(c.listens))
	for p, fn := range c.listens {
		h.listens[p] = fn
	}
	h.accepts = make(map[tcpKey]func(*TCPConn))
	h.pings = make(map[uint16]*pingWaiter)

	h.dhcpXIDSeq = c.dhcpXIDSeq
	h.dnsIDSeq = c.dnsIDSeq
	h.pingIDSeq = c.pingIDSeq

	if c.pmtu == nil {
		h.pmtu = nil
	} else {
		h.pmtu = make(map[netip.Addr]int, len(c.pmtu))
		for a, m := range c.pmtu {
			h.pmtu[a] = m
		}
	}
	h.UnreachRcvd = c.unreachRcvd
	h.gleanND = c.gleanND
	h.nat64Prefix = c.nat64Prefix
	h.DNSOverride = append(h.DNSOverride[:0], c.dnsOverride...)
	h.Events = h.Events[:c.nEvents]
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
