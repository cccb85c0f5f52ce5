package packet

import (
	"fmt"
	"net/netip"
)

// UDPHeaderLen is the fixed UDP header size.
const UDPHeaderLen = 8

// UDP is a parsed UDP datagram (RFC 768).
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// Marshal encodes the datagram with the checksum computed over the
// pseudo-header for src/dst.
func (u *UDP) Marshal(src, dst netip.Addr) []byte { return u.AppendMarshal(nil, src, dst) }

// AppendMarshal appends the encoded datagram to b and returns the
// extended slice; bytes already in b are left untouched.
func (u *UDP) AppendMarshal(b []byte, src, dst netip.Addr) []byte {
	b, d := grow(b, UDPHeaderLen+len(u.Payload))
	put16(d[0:], u.SrcPort)
	put16(d[2:], u.DstPort)
	put16(d[4:], uint16(len(d)))
	put16(d[6:], 0)
	copy(d[8:], u.Payload)
	ck := PseudoHeaderChecksum(ProtoUDP, src, dst, d)
	if ck == 0 {
		ck = 0xffff // RFC 768: zero checksum transmitted as all ones
	}
	put16(d[6:], ck)
	return b
}

// ParseUDP decodes a UDP datagram and verifies its checksum against the
// pseudo-header (unless the checksum field is zero, which IPv4 permits).
// Payload is a view into b, not a copy.
func ParseUDP(b []byte, src, dst netip.Addr) (*UDP, error) {
	if len(b) < UDPHeaderLen {
		return nil, fmt.Errorf("udp header: %w", ErrTruncated)
	}
	ulen := int(be16(b[4:]))
	if ulen < UDPHeaderLen || ulen > len(b) {
		return nil, fmt.Errorf("udp length %d: %w", ulen, ErrTruncated)
	}
	if be16(b[6:]) != 0 {
		if PseudoHeaderChecksum(ProtoUDP, src, dst, b[:ulen]) != 0 {
			return nil, fmt.Errorf("udp: %w", ErrBadChecksum)
		}
	} else if src.Is6() {
		return nil, fmt.Errorf("udp over ipv6 requires checksum: %w", ErrBadChecksum)
	}
	return &UDP{
		SrcPort: be16(b[0:]),
		DstPort: be16(b[2:]),
		Payload: view(b, UDPHeaderLen, ulen),
	}, nil
}
