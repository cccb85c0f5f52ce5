package packet

import (
	"fmt"
	"net/netip"
)

// IPv6 header constants.
const (
	IPv6HeaderLen       = 40
	IPv6DefaultHopLimit = 64
)

// IPv6 is a parsed IPv6 packet (RFC 8200). Extension headers are not
// modelled; NextHeader carries the upper-layer protocol directly, which
// matches every flow the testbed generates.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	NextHeader   uint8
	HopLimit     uint8
	Src          netip.Addr
	Dst          netip.Addr
	Payload      []byte
}

// Marshal encodes the packet with the payload length computed.
func (p *IPv6) Marshal() []byte { return p.AppendMarshal(nil) }

// AppendMarshal appends the encoded packet to b and returns the extended
// slice; bytes already in b are left untouched.
func (p *IPv6) AppendMarshal(b []byte) []byte {
	b, h := grow(b, IPv6HeaderLen+len(p.Payload))
	h[0] = 0x60 | p.TrafficClass>>4
	h[1] = p.TrafficClass<<4 | uint8(p.FlowLabel>>16&0x0f)
	h[2] = byte(p.FlowLabel >> 8)
	h[3] = byte(p.FlowLabel)
	put16(h[4:], uint16(len(p.Payload)))
	h[6] = p.NextHeader
	hl := p.HopLimit
	if hl == 0 {
		hl = IPv6DefaultHopLimit
	}
	h[7] = hl
	src, dst := p.Src.As16(), p.Dst.As16()
	copy(h[8:24], src[:])
	copy(h[24:40], dst[:])
	copy(h[40:], p.Payload)
	return b
}

// ParseIPv6 decodes an IPv6 packet, verifying version and payload length.
// Payload is a view into b, not a copy.
func ParseIPv6(b []byte) (*IPv6, error) {
	if len(b) < IPv6HeaderLen {
		return nil, fmt.Errorf("ipv6 header: %w", ErrTruncated)
	}
	if b[0]>>4 != 6 {
		return nil, ErrBadVersion
	}
	plen := int(be16(b[4:]))
	if IPv6HeaderLen+plen > len(b) {
		return nil, fmt.Errorf("ipv6 payload length %d: %w", plen, ErrTruncated)
	}
	p := &IPv6{
		TrafficClass: b[0]<<4 | b[1]>>4,
		FlowLabel:    uint32(b[1]&0x0f)<<16 | uint32(b[2])<<8 | uint32(b[3]),
		NextHeader:   b[6],
		HopLimit:     b[7],
		Src:          netip.AddrFrom16([16]byte(b[8:24])),
		Dst:          netip.AddrFrom16([16]byte(b[24:40])),
	}
	p.Payload = view(b, IPv6HeaderLen, IPv6HeaderLen+plen)
	return p, nil
}

// SolicitedNodeMulticast returns the solicited-node multicast address
// ff02::1:ffXX:XXXX for a unicast IPv6 address (RFC 4291 §2.7.1).
func SolicitedNodeMulticast(a netip.Addr) netip.Addr {
	b := a.As16()
	var m [16]byte
	m[0], m[1] = 0xff, 0x02
	m[11], m[12] = 0x01, 0xff
	m[13], m[14], m[15] = b[13], b[14], b[15]
	return netip.AddrFrom16(m)
}

// MulticastMAC maps an IPv6 multicast address to its 33:33:xx MAC
// (RFC 2464 §7).
func MulticastMAC(a netip.Addr) [6]byte {
	b := a.As16()
	return [6]byte{0x33, 0x33, b[12], b[13], b[14], b[15]}
}
