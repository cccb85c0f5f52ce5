package hoststack

import (
	"net/netip"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// AttachDNSServer binds a DNS resolver to UDP port 53 on the host (over
// both IPv4 and IPv6, whichever the host has addresses for).
func AttachDNSServer(h *Host, r dns.Resolver) {
	h.BindUDP(53, func(src netip.Addr, srcPort uint16, dst netip.Addr, payload []byte) {
		req, err := dnswire.Parse(payload)
		if err != nil || req.Response {
			return
		}
		resp := dns.RespondOrDrop(r, req)
		if resp == nil {
			// dns.ErrDrop: interference ate the query; stay silent so the
			// client times out instead of seeing SERVFAIL.
			return
		}
		wire, err := resp.Marshal()
		if err != nil {
			return
		}
		_ = h.ReplyUDP(dst, src, 53, srcPort, wire)
	})
}

// AttachDHCPServer binds a DHCPv4 server to UDP port 67 on the host.
// Replies are sent as link-layer unicast to the client's hardware
// address (broadcast when the client requested it), with the IP
// destination 255.255.255.255 since the client has no address yet.
func AttachDHCPServer(h *Host, srv *dhcp4.Server) {
	h.BindUDP(dhcp4.ServerPort, func(src netip.Addr, srcPort uint16, dst netip.Addr, payload []byte) {
		msg, err := dhcp4.Parse(payload)
		if err != nil {
			return
		}
		resp := srv.Handle(msg)
		if resp == nil {
			return
		}
		dstMAC := netsim.MAC(resp.CHAddr)
		if resp.Broadcast {
			dstMAC = netsim.Broadcast
		}
		h.transmitUDPv4(dstMAC, h.v4Addr, v4LimitedBroadcast, dhcp4.ServerPort, dhcp4.ClientPort, resp.Marshal())
	})
}
