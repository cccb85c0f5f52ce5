package hoststack

import (
	"errors"
	"net/netip"
	"time"

	"repro/internal/clat"
	"repro/internal/packet"
)

// Errors surfaced by the socket layer.
var (
	errNoIPv4    = errors.New("hoststack: no IPv4 address configured")
	errNoIPv6    = errors.New("hoststack: IPv6 stack disabled")
	errNoV4Route = errors.New("hoststack: no IPv4 route to destination")
	errNoV6Route = errors.New("hoststack: no IPv6 route to destination")
	// ErrTimeout reports a request that received no answer in time.
	ErrTimeout = errors.New("hoststack: timed out")
	// ErrUnreachable reports a destination with no usable path.
	ErrUnreachable = errors.New("hoststack: destination unreachable")
)

// BindUDP registers a handler for datagrams arriving on port. Servers
// (DNS, DHCP, portals) use this.
func (h *Host) BindUDP(port uint16, handler UDPHandler) { h.udpBind[port] = handler }

// UnbindUDP releases a bound port.
func (h *Host) UnbindUDP(port uint16) { delete(h.udpBind, port) }

// allocUDPPort returns an ephemeral port not currently bound.
func (h *Host) allocUDPPort() uint16 {
	for i := 0; i < 16384; i++ {
		h.udpNext++
		if h.udpNext < 49152 {
			h.udpNext = 49152
		}
		if _, used := h.udpBind[h.udpNext]; !used {
			return h.udpNext
		}
	}
	return 0
}

// srcFor picks the RFC 6724 source address for dst, or invalid.
func (h *Host) srcFor(dst netip.Addr) (netip.Addr, bool) {
	return h.sel.SelectSource(h.candidateSources(), dst)
}

// SendUDP transmits one datagram from an ephemeral port and delivers
// any reply arriving on that port to reply (which may be nil for
// fire-and-forget). It returns the chosen local port.
func (h *Host) SendUDP(dst netip.Addr, dstPort uint16, payload []byte, reply UDPHandler) (uint16, error) {
	src, ok := h.srcFor(dst)
	if !ok {
		return 0, ErrUnreachable
	}
	lport := h.allocUDPPort()
	if lport == 0 {
		return 0, errors.New("hoststack: ephemeral ports exhausted")
	}
	if reply != nil {
		h.udpBind[lport] = reply
	}
	if dst.Is4() && h.clat != nil && !h.v4Addr.IsValid() {
		// Through a CLAT the IPv4 literal is carried over IPv6; the source
		// stamped here is the CLAT host address.
		src = clat.HostV4
		h.trackCLATPort(packet.ProtoUDP, lport)
	}
	err := h.ReplyUDP(src, dst, lport, dstPort, payload)
	if err != nil {
		h.UnbindUDP(lport)
		return 0, err
	}
	return lport, nil
}

// ReplyUDP sends a datagram from a specific local address and port —
// the shape servers use to answer from the service address a request
// arrived on.
func (h *Host) ReplyUDP(from, to netip.Addr, fromPort, toPort uint16, payload []byte) error {
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	*buf = (&packet.UDP{SrcPort: fromPort, DstPort: toPort, Payload: payload}).AppendMarshal((*buf)[:0], from, to)
	if to.Is4() {
		return h.SendIPv4(&packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, Src: from, Dst: to, Payload: *buf})
	}
	return h.SendIPv6(&packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: from, Dst: to, Payload: *buf})
}

// Query performs a UDP request/response exchange synchronously by
// driving the network until a reply lands or the virtual-time deadline
// passes.
func (h *Host) Query(dst netip.Addr, dstPort uint16, payload []byte, timeout time.Duration) ([]byte, error) {
	var resp []byte
	done := false
	lport, err := h.SendUDP(dst, dstPort, payload, func(_ netip.Addr, _ uint16, _ netip.Addr, data []byte) {
		resp = append([]byte(nil), data...) // data aliases the frame
		done = true
	})
	if err != nil {
		return nil, err
	}
	defer h.UnbindUDP(lport)
	if !h.Net.WaitUntil(func() bool { return done }, timeout) {
		return nil, ErrTimeout
	}
	return resp, nil
}
