package hoststack

import (
	"net/netip"
	"strings"
	"time"

	"repro/internal/clat"
	"repro/internal/dhcp4"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// dhcpClient is the host's DHCPv4 client state.
type dhcpClient struct {
	xid        uint32
	state      string // "", "selecting", "requesting", "bound", "v6only"
	serverID   netip.Addr
	reqAddr    netip.Addr // address being REQUESTed (for retransmission)
	lease      time.Duration
	renewTimer *netsim.Timer
	retryTimer *netsim.Timer
	// attempt counts retransmissions of the in-flight message; the
	// RFC 2131 §4.1 backoff doubles the interval per attempt.
	attempt int
	// Renewals counts successful T1 renewals (observable in tests).
	Renewals int
	// Retransmits counts DISCOVER/REQUEST resends (observable in tests).
	Retransmits int
}

// RFC 2131 §4.1 retransmission schedule: 4s, 8s, 16s, 32s, then 64s
// between tries (deterministic — the suggested ±1s randomization would
// break replayability). After dhcpMaxRequestTries lost REQUESTs the
// client falls back to a fresh DISCOVER, per §3.1.5.
const (
	dhcpRetryBase        = 4 * time.Second
	dhcpRetryCap         = 64 * time.Second
	dhcpMaxRequestTries  = 4
	dhcpMaxDiscoverTries = 8
)

// nextDHCPXID returns a fresh transaction ID, seeded from the host's
// MAC so the sequence is a pure function of the host's own world (no
// shared package counter). Servers match replies on xid AND chaddr, so
// cross-host collisions are harmless.
func (h *Host) nextDHCPXID() uint32 {
	if h.dhcpXIDSeq == 0 {
		mac := h.NIC.MAC()
		h.dhcpXIDSeq = 0x5c240000 | uint32(mac[4])<<8 | uint32(mac[5])
	}
	h.dhcpXIDSeq++
	return h.dhcpXIDSeq
}

// dhcpStart broadcasts a DISCOVER. RFC 8925-capable behaviours include
// option 108 in the parameter request list.
func (h *Host) dhcpStart() {
	h.stopDHCPRetry()
	h.dhcp = dhcpClient{
		xid: h.nextDHCPXID(), state: "selecting",
		// Observability counters survive transaction restarts.
		Renewals: h.dhcp.Renewals, Retransmits: h.dhcp.Retransmits,
	}
	h.udpBind[dhcp4.ClientPort] = func(_ netip.Addr, _ uint16, _ netip.Addr, payload []byte) {
		if h.foreignDHCPReply(payload) {
			return
		}
		if msg, err := dhcp4.Parse(payload); err == nil {
			h.handleDHCPReply(msg)
		}
	}
	h.sendDiscover()
	h.armDHCPRetry()
	h.logf("dhcp discover (xid %#x, option108=%v)", h.dhcp.xid, h.B.SupportsRFC8925)
}

// sendDiscover broadcasts the DISCOVER for the current transaction.
func (h *Host) sendDiscover() {
	msg := dhcp4.NewMessage(dhcp4.OpRequest, h.dhcp.xid, h.NIC.MAC())
	msg.SetType(dhcp4.Discover)
	msg.Broadcast = true
	prl := []byte{dhcp4.OptSubnetMask, dhcp4.OptRouter, dhcp4.OptDNSServers, dhcp4.OptDomainName}
	if h.B.SupportsRFC8925 {
		prl = append(prl, dhcp4.OptIPv6OnlyPreferred)
	}
	msg.Options[dhcp4.OptParamRequestList] = prl
	msg.Options[dhcp4.OptHostname] = []byte(strings.ReplaceAll(h.name, " ", "-"))
	h.sendDHCP(msg)
}

// sendRequest broadcasts the REQUEST for the offer recorded in
// h.dhcp.reqAddr/serverID.
func (h *Host) sendRequest() {
	req := dhcp4.NewMessage(dhcp4.OpRequest, h.dhcp.xid, h.NIC.MAC())
	req.SetType(dhcp4.Request)
	req.Broadcast = true
	req.SetIPv4Option(dhcp4.OptRequestedIP, h.dhcp.reqAddr)
	req.SetIPv4Option(dhcp4.OptServerID, h.dhcp.serverID)
	if h.B.SupportsRFC8925 {
		req.Options[dhcp4.OptParamRequestList] = []byte{dhcp4.OptIPv6OnlyPreferred}
	}
	h.sendDHCP(req)
}

// armDHCPRetry schedules the next retransmission for the in-flight
// DISCOVER/REQUEST with RFC 2131 exponential backoff. The timer is a
// no-op once the exchange completes (bound/v6only), so on a healthy
// LAN the schedule never transmits anything.
func (h *Host) armDHCPRetry() {
	h.stopDHCPRetry()
	delay := dhcpRetryCap
	if h.dhcp.attempt < 4 {
		delay = dhcpRetryBase << h.dhcp.attempt
	}
	h.dhcp.retryTimer = h.Net.Clock.AfterFunc(delay, h.dhcpRetransmit)
}

func (h *Host) stopDHCPRetry() {
	if h.dhcp.retryTimer != nil {
		h.dhcp.retryTimer.Stop()
		h.dhcp.retryTimer = nil
	}
}

// dhcpRetransmit resends the message the client is waiting on. Lost
// REQUESTs eventually fall back to a new DISCOVER (the offer may have
// been forgotten — e.g. the gateway rebooted); lost renewals fall back
// likewise so the client re-acquires a lease instead of wedging.
func (h *Host) dhcpRetransmit() {
	switch h.dhcp.state {
	case "selecting":
		h.dhcp.attempt++
		if h.dhcp.attempt > dhcpMaxDiscoverTries {
			// Bound the self-rearming schedule: a LAN with no DHCP
			// service at all stays quiet instead of beaconing forever.
			h.logf("dhcp gave up after %d discovers", h.dhcp.attempt)
			return
		}
		h.dhcp.Retransmits++
		h.logf("dhcp discover retransmit #%d", h.dhcp.attempt)
		h.sendDiscover()
		h.armDHCPRetry()
	case "requesting", "renewing":
		h.dhcp.attempt++
		if h.dhcp.attempt >= dhcpMaxRequestTries {
			h.logf("dhcp request abandoned after %d tries; rediscovering", h.dhcp.attempt)
			h.dhcpStart()
			return
		}
		h.dhcp.Retransmits++
		h.logf("dhcp request retransmit #%d", h.dhcp.attempt)
		if h.dhcp.state == "renewing" {
			h.sendRenewRequest()
		} else {
			h.sendRequest()
		}
		h.armDHCPRetry()
	}
	// bound / v6only / "": the exchange completed; stale timer, no-op.
}

// sendDHCP broadcasts a client message from 0.0.0.0:68 to 255.255.255.255:67.
func (h *Host) sendDHCP(msg *dhcp4.Message) {
	src := netip.AddrFrom4([4]byte{})
	dst := v4LimitedBroadcast
	u := &packet.UDP{SrcPort: dhcp4.ClientPort, DstPort: dhcp4.ServerPort, Payload: msg.Marshal()}
	p := &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: src, Dst: dst, Payload: u.Marshal(src, dst)}
	h.NIC.Transmit(netsim.Frame{Dst: netsim.Broadcast, EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()})
}

// dhcpReplyPeekLen covers the BOOTP fixed fields foreignDHCPReply reads:
// op (byte 0), xid (bytes 4-7) and the first six chaddr bytes (28-33).
const dhcpReplyPeekLen = 34

// foreignDHCPReply reports whether a payload on the client port is
// visibly not a reply to this client's transaction: not a BOOTREPLY, or
// another transaction's xid, or another client's chaddr. Every client
// hears every broadcast OFFER/ACK on the LAN, so this fixed-offset test
// runs before any parse — in the port-68 handler, and before the IP and
// UDP headers are even verified in rejectBroadcastUDP. A payload too
// short to hold the fields is not judged here; dhcp4.Parse rejects it.
func (h *Host) foreignDHCPReply(payload []byte) bool {
	if len(payload) < dhcpReplyPeekLen {
		return false
	}
	xid := uint32(payload[4])<<24 | uint32(payload[5])<<16 | uint32(payload[6])<<8 | uint32(payload[7])
	return payload[0] != dhcp4.OpReply || xid != h.dhcp.xid ||
		[6]byte(payload[28:34]) != [6]byte(h.NIC.MAC())
}

// handleDHCPReply processes an OFFER/ACK/NAK that passed
// foreignDHCPReply, i.e. a reply to this client's transaction. The host
// recognizes DHCP replies before normal delivery because it has no IPv4
// address yet.
func (h *Host) handleDHCPReply(msg *dhcp4.Message) {
	switch msg.Type() {
	case dhcp4.Offer:
		if h.dhcp.state != "selecting" {
			return
		}
		// RFC 8925 §3.1: an offer carrying option 108 tells a capable
		// client to forgo IPv4 entirely for V6ONLY_WAIT.
		if secs, ok := msg.IPv6OnlyPreferred(); ok && h.B.SupportsRFC8925 {
			wait := time.Duration(secs) * time.Second
			h.v6OnlyUntil = h.Net.Clock.Now().Add(wait)
			h.dhcp.state = "v6only"
			h.v4Addr = netip.Addr{}
			h.stopDHCPRetry()
			h.logf("dhcp offer has option 108: IPv6-only for %v", wait)
			if h.B.HasCLAT {
				h.startCLAT()
			}
			return
		}
		sid, _ := msg.IPv4Option(dhcp4.OptServerID)
		h.dhcp.serverID = sid
		h.dhcp.reqAddr = msg.YIAddr
		h.dhcp.state = "requesting"
		h.dhcp.attempt = 0
		h.sendRequest()
		h.armDHCPRetry()
	case dhcp4.ACK:
		if h.dhcp.state != "requesting" && h.dhcp.state != "renewing" {
			return
		}
		renewed := h.dhcp.state == "renewing"
		h.dhcp.state = "bound"
		h.dhcp.attempt = 0
		h.stopDHCPRetry()
		h.v4Addr = msg.YIAddr
		if lt, ok := msg.Options[dhcp4.OptLeaseTime]; ok && len(lt) == 4 {
			secs := uint32(lt[0])<<24 | uint32(lt[1])<<16 | uint32(lt[2])<<8 | uint32(lt[3])
			h.dhcp.lease = time.Duration(secs) * time.Second
		}
		h.scheduleRenewal()
		if renewed {
			h.dhcp.Renewals++
			h.logf("dhcp renewed %v", h.v4Addr)
			return
		}
		if mask, ok := msg.IPv4Option(dhcp4.OptSubnetMask); ok {
			h.v4Prefix = prefixFromMask(msg.YIAddr, mask)
		}
		if gw, ok := msg.IPv4Option(dhcp4.OptRouter); ok {
			h.v4Router = gw
		}
		if servers := msg.IPv4ListOption(dhcp4.OptDNSServers); len(servers) > 0 {
			h.v4DNS = servers
		}
		if dom, ok := msg.Options[dhcp4.OptDomainName]; ok {
			h.v4Domain = string(dom)
		}
		h.logf("dhcp bound %v gw %v dns %v domain %q", h.v4Addr, h.v4Router, h.v4DNS, h.v4Domain)
	case dhcp4.NAK:
		h.logf("dhcp nak; restarting")
		if h.dhcp.renewTimer != nil {
			h.dhcp.renewTimer.Stop()
		}
		h.v4Addr = netip.Addr{}
		h.dhcpStart()
	}
}

// scheduleRenewal arms the T1 (lease/2) renewal timer (RFC 2131 §4.4.5).
func (h *Host) scheduleRenewal() {
	if h.dhcp.renewTimer != nil {
		h.dhcp.renewTimer.Stop()
	}
	if h.dhcp.lease <= 0 {
		return
	}
	h.dhcp.renewTimer = h.Net.Clock.AfterFunc(h.dhcp.lease/2, h.dhcpRenew)
}

// dhcpRenew sends the T1 unicast-style REQUEST with ciaddr set.
func (h *Host) dhcpRenew() {
	if h.dhcp.state != "bound" || !h.v4Addr.IsValid() {
		return
	}
	h.dhcp.state = "renewing"
	h.dhcp.attempt = 0
	h.sendRenewRequest()
	h.armDHCPRetry()
}

// sendRenewRequest emits the renewal REQUEST for the bound address.
func (h *Host) sendRenewRequest() {
	req := dhcp4.NewMessage(dhcp4.OpRequest, h.dhcp.xid, h.NIC.MAC())
	req.SetType(dhcp4.Request)
	req.CIAddr = h.v4Addr
	h.sendDHCP(req)
}

// DHCPRenewals reports how many T1 renewals completed.
func (h *Host) DHCPRenewals() int { return h.dhcp.Renewals }

// DHCPRetransmits reports how many DISCOVER/REQUEST resends occurred.
func (h *Host) DHCPRetransmits() int { return h.dhcp.Retransmits }

// bestCLATSource picks the host's best translation source: a GUA when
// one exists (carriers and the testbed's gateway drop ULA-sourced
// traffic), otherwise any non-link-local address.
func (h *Host) bestCLATSource() netip.Addr {
	var fallback netip.Addr
	for _, a := range h.v6Addrs {
		if a.Addr.IsLinkLocalUnicast() {
			continue
		}
		if !isULAAddr(a.Addr) {
			return a.Addr
		}
		if !fallback.IsValid() {
			fallback = a.Addr
		}
	}
	return fallback
}

func isULAAddr(a netip.Addr) bool {
	b := a.As16()
	return a.Is6() && !a.Is4() && b[0]&0xfe == 0xfc
}

// startCLAT brings up 464XLAT using the host's best global IPv6 address
// and the learned NAT64 prefix (RFC 8781 PREF64 when the RA carried
// one, otherwise the well-known prefix until DiscoverNAT64Prefix runs).
func (h *Host) startCLAT() {
	src := h.bestCLATSource()
	h.clat = clat.New(src)
	if h.nat64Prefix.IsValid() {
		h.clat.Prefix = h.nat64Prefix
	}
	h.logf("clat started (src %v, prefix %v)", src, h.clat.Prefix)
}

// DiscoverNAT64Prefix performs RFC 7050 discovery: resolve the
// well-known name ipv4only.arpa for AAAA and extract the translation
// prefix from the synthesized answer. A PREF64-learned prefix (RFC 8781)
// takes precedence and short-circuits the query.
func (h *Host) DiscoverNAT64Prefix() (netip.Prefix, error) {
	if h.nat64Prefix.IsValid() {
		return h.nat64Prefix, nil
	}
	resolvers := h.Resolvers()
	if len(resolvers) == 0 {
		return netip.Prefix{}, errNoV6Route
	}
	resp, err := h.QueryDNS(resolvers[0], "ipv4only.arpa", dnswire.TypeAAAA)
	if err != nil {
		return netip.Prefix{}, err
	}
	for _, rr := range resp.Answers {
		if rr.Type != dnswire.TypeAAAA {
			continue
		}
		// RFC 7050 §3: the well-known IPv4 addresses 192.0.0.170/171 sit
		// in the low 32 bits of a /96 synthesis.
		b := rr.Addr.As16()
		if b[12] == 192 && b[13] == 0 && b[14] == 0 && (b[15] == 170 || b[15] == 171) {
			var p [16]byte
			copy(p[:12], b[:12])
			h.nat64Prefix = netip.PrefixFrom(netip.AddrFrom16(p), 96)
			if h.clat != nil {
				h.clat.Prefix = h.nat64Prefix
			}
			h.logf("nat64 prefix %v (RFC 7050 via ipv4only.arpa)", h.nat64Prefix)
			return h.nat64Prefix, nil
		}
	}
	return netip.Prefix{}, ErrNameNotFound
}

// NAT64Prefix returns the learned translation prefix (invalid if only
// the well-known default is in use).
func (h *Host) NAT64Prefix() netip.Prefix { return h.nat64Prefix }

// refreshCLATSource re-points an already-running CLAT at the current
// best global address (SLAAC may complete after option 108 acceptance).
func (h *Host) refreshCLATSource() {
	if h.clat == nil {
		return
	}
	if src := h.bestCLATSource(); src.IsValid() {
		h.clat.SrcV6 = src
	}
}

func prefixFromMask(addr, mask netip.Addr) netip.Prefix {
	m := mask.As4()
	bits := 0
	for _, b := range m {
		for i := 7; i >= 0; i-- {
			if b&(1<<i) != 0 {
				bits++
			}
		}
	}
	return netip.PrefixFrom(addr, bits).Masked()
}
