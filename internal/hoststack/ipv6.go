package hoststack

import (
	"bytes"
	"net/netip"
	"slices"
	"time"

	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

func (h *Host) sendRouterSolicit() {
	rs := &ndp.RouterSolicit{SourceLinkAddr: h.NIC.MAC(), HasSourceLink: true}
	body := (&packet.ICMP{Type: packet.ICMPv6RouterSolicit, Body: rs.Marshal()}).
		MarshalV6(h.linkLocal, ndp.AllRouters)
	p := &packet.IPv6{
		NextHeader: packet.ProtoICMPv6, HopLimit: 255,
		Src: h.linkLocal, Dst: ndp.AllRouters, Payload: body,
	}
	h.transmitIPv6(netsim.MAC(packet.MulticastMAC(ndp.AllRouters)), p)
}

// SendIPv6 routes and transmits an IPv6 packet, resolving the next hop
// via neighbor discovery. p.Payload may be the caller's scratch buffer:
// the paths that keep the packet past the call (the neighbor-discovery
// queue, loopback delivery) copy it first.
func (h *Host) SendIPv6(p *packet.IPv6) error {
	if !h.B.IPv6Enabled && len(h.v6Addrs) == 0 {
		return errNoIPv6
	}
	if p.Dst.IsMulticast() {
		h.transmitIPv6(netsim.MAC(packet.MulticastMAC(p.Dst)), p)
		return nil
	}
	if h.ownsV6(p.Dst) {
		q := *p
		q.Payload = slices.Clone(p.Payload)
		h.deliverIPv6(&q, nil)
		return nil
	}
	nextHop, err := h.nextHopV6(p.Dst)
	if err != nil {
		return err
	}
	if mac, ok := h.ndCache[nextHop]; ok {
		h.transmitIPv6(mac, p)
		return nil
	}
	q := *p
	q.Payload = slices.Clone(p.Payload)
	h.ndPending[nextHop] = append(h.ndPending[nextHop], &q)
	h.sendNeighborSolicit(nextHop)
	return nil
}

// nextHopV6 picks the on-link neighbor or the best default router.
func (h *Host) nextHopV6(dst netip.Addr) (netip.Addr, error) {
	if dst.IsLinkLocalUnicast() {
		return dst, nil
	}
	for _, a := range h.v6Addrs {
		if a.Prefix.IsValid() && a.Prefix.Contains(dst) {
			return dst, nil
		}
	}
	if r, ok := h.bestRouter(); ok {
		return r.addr, nil
	}
	return netip.Addr{}, errNoV6Route
}

// bestRouter returns the highest-preference unexpired default router.
func (h *Host) bestRouter() (routerEntry, bool) {
	now := h.Net.Clock.Now()
	var best routerEntry
	found := false
	for _, r := range h.routers {
		if !r.expires.After(now) {
			continue
		}
		if !found || r.preference > best.preference {
			best, found = r, true
		}
	}
	return best, found
}

func (h *Host) sendNeighborSolicit(target netip.Addr) {
	ns := &ndp.NeighborSolicit{Target: target, SourceLinkAddr: h.NIC.MAC(), HasSourceLink: true}
	src := h.linkLocal
	if !src.IsValid() && len(h.v6Addrs) > 0 {
		src = h.v6Addrs[0].Addr
	}
	snm := packet.SolicitedNodeMulticast(target)
	body := (&packet.ICMP{Type: packet.ICMPv6NeighborSolicit, Body: ns.Marshal()}).MarshalV6(src, snm)
	p := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: src, Dst: snm, Payload: body}
	h.transmitIPv6(netsim.MAC(packet.MulticastMAC(snm)), p)
}

func (h *Host) flushNDPending(addr netip.Addr) {
	if len(h.ndPending) == 0 {
		return
	}
	mac, ok := h.ndCache[addr]
	if !ok {
		return
	}
	for _, p := range h.ndPending[addr] {
		h.transmitIPv6(mac, p)
	}
	delete(h.ndPending, addr)
}

// raMemo is one Router Advertisement this host has already verified
// and parsed: the exact IPv6 packet bytes whose ICMPv6 checksum held and
// whose RA body parsed, with the header addresses and the parsed RA. It
// is a derived cache — nothing in it is state a fresh host lacks. It
// outlives the frame it came from, so it holds only copies: pkt is a
// private copy, and ndp.ParseRouterAdvert copies every field out of the
// ICMPv6 body view it parses.
type raMemo struct {
	pkt      []byte
	src, dst netip.Addr
	ra       *ndp.RouterAdvert
}

// raMemoSlots bounds the RA memo. A LAN has a handful of advertising
// routers (the Fig. 4 floor has two); past the bound the last slot is
// recycled, which costs hits, never correctness.
const raMemoSlots = 4

// memoizedRA returns the memo entry whose packet bytes equal pkt, or
// nil. Both checks the full path makes on those bytes — the ICMPv6
// checksum and the RA parse — are pure functions of them, so a
// byte-identical frame would verify and parse to the same RA again.
func (h *Host) memoizedRA(pkt []byte) *raMemo {
	for i := range h.raMemos {
		if m := &h.raMemos[i]; bytes.Equal(m.pkt, pkt) {
			return m
		}
	}
	return nil
}

// rememberRA records a verified RA as its router's memo entry, replacing
// that router's previous one. Routers' periodic RAs alternate on a
// shared LAN, so entries are kept per source; a single slot would miss
// every time.
func (h *Host) rememberRA(pkt []byte, src, dst netip.Addr, ra *ndp.RouterAdvert) {
	i := 0
	for i < len(h.raMemos) && h.raMemos[i].src != src {
		i++
	}
	if i == len(h.raMemos) {
		if i < raMemoSlots {
			h.raMemos = append(h.raMemos, raMemo{})
		} else {
			i--
		}
	}
	m := &h.raMemos[i]
	// pkt is a view into the frame, which is only ours while the
	// handler runs; keep a private copy.
	m.pkt = append(m.pkt[:0], pkt...)
	m.src, m.dst, m.ra = src, dst, ra
}

// handleIPv6Frame receives one IPv6 frame. A byte-identical repeat of a
// memoized RA skips the IPv6 parse, the ICMPv6 checksum and the RA
// parse; the destination check, neighbor gleaning and processRA run for
// it exactly as for a parsed frame.
func (h *Host) handleIPv6Frame(f netsim.Frame) {
	m := h.memoizedRA(f.Payload)
	var p *packet.IPv6
	var src, dst netip.Addr
	if m != nil {
		src, dst = m.src, m.dst
	} else {
		var err error
		if p, err = packet.ParseIPv6(f.Payload); err != nil {
			return
		}
		src, dst = p.Src, p.Dst
	}
	if !h.ownsV6(dst) {
		return
	}
	// Servers in scoped-flood (fabric) worlds glean neighbors from the
	// traffic they serve, exactly as the gateway does: an ND multicast
	// solicitation toward a client would never cross a scoped trunk, so
	// the reply path must come from the request itself.
	if h.gleanND && !src.IsMulticast() && src.IsValid() && !f.Src.IsZero() {
		if _, known := h.ndCache[src]; !known {
			h.ndCache[src] = f.Src
			h.flushNDPending(src)
		}
	}
	if m != nil {
		h.processRA(src, m.ra)
		return
	}
	h.deliverIPv6(p, f.Payload)
}

// deliverIPv6 hands a parsed packet to its transport. raw is the
// packet's wire bytes when it arrived off the link (so a verified RA can
// be memoized) and nil for loopback delivery.
func (h *Host) deliverIPv6(p *packet.IPv6, raw []byte) {
	switch p.NextHeader {
	case packet.ProtoICMPv6:
		h.handleICMPv6(p, raw)
	case packet.ProtoUDP:
		u, err := packet.ParseUDP(p.Payload, p.Src, p.Dst)
		if err != nil {
			return
		}
		if h.clatOwns(packet.ProtoUDP, u.DstPort) {
			h.deliverViaCLAT(p)
			return
		}
		if handler, ok := h.udpBind[u.DstPort]; ok {
			handler(p.Src, u.SrcPort, p.Dst, u.Payload)
		}
	case packet.ProtoTCP:
		tc, err := packet.ParseTCP(p.Payload, p.Src, p.Dst)
		if err != nil {
			return
		}
		if h.clatOwns(packet.ProtoTCP, tc.DstPort) {
			h.deliverViaCLAT(p)
			return
		}
		h.handleTCP(p.Src, p.Dst, tc)
	}
}

// deliverViaCLAT translates an inbound NAT64-prefixed packet back to
// IPv4 for the legacy application socket.
func (h *Host) deliverViaCLAT(p *packet.IPv6) {
	v4, err := h.clat.TranslateV6ToV4(p)
	if err != nil {
		return
	}
	h.deliverIPv4(v4)
}

func (h *Host) handleICMPv6(p *packet.IPv6, raw []byte) {
	ic, err := packet.ParseICMPv6(p.Payload, p.Src, p.Dst)
	if err != nil {
		return
	}
	switch ic.Type {
	case packet.ICMPv6RouterAdvert:
		ra, err := ndp.ParseRouterAdvert(ic.Body)
		if err != nil {
			return
		}
		if raw != nil {
			h.rememberRA(raw, p.Src, p.Dst, ra)
		}
		h.processRA(p.Src, ra)
	case packet.ICMPv6NeighborSolicit:
		ns, err := ndp.ParseNeighborSolicit(ic.Body)
		if err != nil || !h.ownsUnicastV6(ns.Target) {
			return
		}
		if ns.HasSourceLink {
			h.ndCache[p.Src] = netsim.MAC(ns.SourceLinkAddr)
			h.flushNDPending(p.Src)
		}
		na := &ndp.NeighborAdvert{
			Solicited: true, Override: true,
			Target: ns.Target, TargetLinkAddr: h.NIC.MAC(), HasTargetLink: true,
		}
		body := (&packet.ICMP{Type: packet.ICMPv6NeighborAdvert, Body: na.Marshal()}).MarshalV6(ns.Target, p.Src)
		reply := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: ns.Target, Dst: p.Src, Payload: body}
		if mac, ok := h.ndCache[p.Src]; ok {
			h.transmitIPv6(mac, reply)
		}
	case packet.ICMPv6NeighborAdvert:
		na, err := ndp.ParseNeighborAdvert(ic.Body)
		if err != nil {
			return
		}
		if na.HasTargetLink {
			h.ndCache[na.Target] = netsim.MAC(na.TargetLinkAddr)
			h.flushNDPending(na.Target)
		}
	case packet.ICMPv6EchoRequest:
		src := p.Dst
		if src.IsMulticast() {
			if len(h.v6Addrs) > 0 {
				src = h.v6Addrs[0].Addr
			} else {
				src = h.linkLocal
			}
		}
		body := (&packet.ICMP{Type: packet.ICMPv6EchoReply, Body: ic.Body}).MarshalV6(src, p.Src)
		reply := &packet.IPv6{NextHeader: packet.ProtoICMPv6, Src: src, Dst: p.Src, Payload: body}
		_ = h.SendIPv6(reply)
	case packet.ICMPv6EchoReply:
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err == nil {
			h.pongReceived(p.Src, id, seq, data)
		}
	case packet.ICMPv6PacketTooBig:
		h.handlePacketTooBig(ic)
	case packet.ICMPv6DestUnreachable:
		h.handleDestUnreachable(ic)
	}
}

// ownsUnicastV6 reports ownership of a unicast address (excludes the
// multicast groups ownsV6 also accepts).
func (h *Host) ownsUnicastV6(addr netip.Addr) bool {
	if addr == h.linkLocal {
		return true
	}
	for _, a := range h.v6Addrs {
		if a.Addr == addr {
			return true
		}
	}
	return false
}

// processRA applies a Router Advertisement: default-router list, SLAAC
// address formation, and RDNSS learning. ra may be a memoized RA that
// every later repeat of the same bytes reuses, so it is read-only here.
func (h *Host) processRA(src netip.Addr, ra *ndp.RouterAdvert) {
	now := h.Net.Clock.Now()
	if ra.HasSourceLink {
		mac := netsim.MAC(ra.SourceLinkAddr)
		if old, ok := h.ndCache[src]; !ok || old != mac {
			h.ndCache[src] = mac
		}
		h.flushNDPending(src)
	}
	if ra.RouterLifetime > 0 {
		entry := routerEntry{
			addr:       src,
			preference: ra.Preference,
			expires:    now.Add(ra.RouterLifetime),
		}
		if ra.HasSourceLink {
			entry.mac = netsim.MAC(ra.SourceLinkAddr)
		}
		replaced := false
		for i := range h.routers {
			if h.routers[i].addr == src {
				h.routers[i] = entry
				replaced = true
				break
			}
		}
		if !replaced {
			h.routers = append(h.routers, entry)
			h.logf("default router %v (%s preference)", src, ra.Preference)
		}
	}
	h.expireV6Addrs(now)
	for k := range ra.Prefixes {
		pi := &ra.Prefixes[k]
		if !pi.Autonomous || pi.Prefix.Bits() != 64 || pi.ValidLifetime == 0 {
			continue
		}
		addr, err := ndp.EUI64(pi.Prefix, h.NIC.MAC())
		if err != nil {
			continue
		}
		exists := false
		for i := range h.v6Addrs {
			if h.v6Addrs[i].Addr != addr {
				continue
			}
			exists = true
			// RFC 4862 §5.5.3: refresh the lifetimes from the PIO. A
			// PreferredLifetime of 0 deprecates the address at once —
			// the renumbering signal a rebooted gateway sends for its
			// stale /64 — while a positive one un-deprecates it.
			h.v6Addrs[i].ValidUntil = now.Add(pi.ValidLifetime)
			if pi.PreferredLifetime == 0 {
				if !h.v6Addrs[i].Deprecated {
					h.v6Addrs[i].Deprecated = true
					h.logf("deprecated %v (PIO preferred lifetime 0)", addr)
					h.refreshCLATSource()
				}
			} else {
				if h.v6Addrs[i].Deprecated {
					h.v6Addrs[i].Deprecated = false
					h.logf("re-preferred %v", addr)
				}
				h.v6Addrs[i].PreferredUntil = now.Add(pi.PreferredLifetime)
			}
			break
		}
		if !exists && pi.PreferredLifetime > 0 {
			// Never form an address from an already-deprecated prefix:
			// a freshly joining client must not SLAAC the rebooted
			// gateway's stale /64.
			h.v6Addrs = append(h.v6Addrs, V6Addr{
				Addr: addr, Prefix: pi.Prefix,
				PreferredUntil: now.Add(pi.PreferredLifetime),
				ValidUntil:     now.Add(pi.ValidLifetime),
			})
			h.joinSolicitedNode(addr)
			h.logf("slaac %v (from RA by %v)", addr, src)
			h.refreshCLATSource()
		}
	}
	if ra.PREF64.IsValid() && ra.PREF64Lifetime > 0 && ra.PREF64 != h.nat64Prefix {
		h.nat64Prefix = ra.PREF64
		h.logf("pref64 %v (RFC 8781)", ra.PREF64)
		if h.clat != nil {
			h.clat.Prefix = ra.PREF64
		}
	}
	if h.B.SupportsRDNSS && len(ra.RDNSS) > 0 && ra.RDNSSLifetime > 0 {
		for _, server := range ra.RDNSS {
			known := false
			for _, s := range h.rdnss {
				if s == server {
					known = true
					break
				}
			}
			if !known {
				h.rdnss = append(h.rdnss, server)
				h.logf("rdnss %v", server)
			}
		}
	}
}

// expireV6Addrs ages the SLAAC address list: addresses past their
// preferred deadline become deprecated (losing RFC 6724 rule-3 ties),
// addresses past their valid deadline are removed. Zero deadlines
// (static configuration) never age. Run lazily from processRA (new
// router information ages the list) and from candidateSources (use
// time), so lifetimes lapse on schedule even when advertisements stop.
func (h *Host) expireV6Addrs(now time.Time) {
	kept := h.v6Addrs[:0]
	for _, a := range h.v6Addrs {
		if !a.ValidUntil.IsZero() && !a.ValidUntil.After(now) {
			h.leaveSolicitedNode(a.Addr)
			h.logf("addr %v valid lifetime expired", a.Addr)
			continue
		}
		if !a.Deprecated && !a.PreferredUntil.IsZero() && !a.PreferredUntil.After(now) {
			a.Deprecated = true
			h.logf("deprecated %v (preferred lifetime expired)", a.Addr)
		}
		kept = append(kept, a)
	}
	if len(kept) < len(h.v6Addrs) {
		h.v6Addrs = kept
		h.refreshCLATSource()
	} else {
		h.v6Addrs = kept
	}
}

// ExpireRouters drops default routers whose lifetimes have lapsed.
func (h *Host) ExpireRouters() {
	now := h.Net.Clock.Now()
	kept := h.routers[:0]
	for _, r := range h.routers {
		if r.expires.After(now) {
			kept = append(kept, r)
		}
	}
	h.routers = kept
}
