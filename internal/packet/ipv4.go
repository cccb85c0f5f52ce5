package packet

import (
	"errors"
	"fmt"
	"net/netip"
)

// IP protocol numbers used across the testbed.
const (
	ProtoICMP   uint8 = 1
	ProtoTCP    uint8 = 6
	ProtoUDP    uint8 = 17
	ProtoICMPv6 uint8 = 58
)

// IPv4 header constants.
const (
	IPv4MinHeaderLen = 20
	IPv4DefaultTTL   = 64
)

var (
	// ErrTruncated reports a buffer too short for the claimed structure.
	ErrTruncated = errors.New("packet: truncated")
	// ErrBadVersion reports an IP version mismatch.
	ErrBadVersion = errors.New("packet: bad IP version")
	// ErrBadChecksum reports a failed checksum verification.
	ErrBadChecksum = errors.New("packet: bad checksum")
)

// IPv4 is a parsed IPv4 packet (RFC 791). Options are preserved opaquely.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	MoreFrag bool
	FragOff  uint16 // in 8-byte units
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr
	Options  []byte
	Payload  []byte
}

// Marshal encodes the packet, computing total length and header checksum.
func (p *IPv4) Marshal() []byte { return p.AppendMarshal(nil) }

// AppendMarshal appends the encoded packet to b and returns the extended
// slice; bytes already in b are left untouched.
func (p *IPv4) AppendMarshal(b []byte) []byte {
	optLen := (len(p.Options) + 3) &^ 3
	hlen := IPv4MinHeaderLen + optLen
	total := hlen + len(p.Payload)
	b, h := grow(b, total)
	clear(h[:hlen])
	h[0] = 0x40 | uint8(hlen/4)
	h[1] = p.TOS
	put16(h[2:], uint16(total))
	put16(h[4:], p.ID)
	flags := p.FragOff & 0x1fff
	if p.DontFrag {
		flags |= 0x4000
	}
	if p.MoreFrag {
		flags |= 0x2000
	}
	put16(h[6:], flags)
	ttl := p.TTL
	if ttl == 0 {
		ttl = IPv4DefaultTTL
	}
	h[8] = ttl
	h[9] = p.Protocol
	src, dst := p.Src.As4(), p.Dst.As4()
	copy(h[12:16], src[:])
	copy(h[16:20], dst[:])
	copy(h[20:hlen], p.Options)
	put16(h[10:], Checksum(h[:hlen]))
	copy(h[hlen:], p.Payload)
	return b
}

// ParseIPv4 decodes an IPv4 packet, verifying version, lengths and the
// header checksum. Options and Payload are views into b, not copies.
func ParseIPv4(b []byte) (*IPv4, error) {
	if len(b) < IPv4MinHeaderLen {
		return nil, fmt.Errorf("ipv4 header: %w", ErrTruncated)
	}
	if b[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < IPv4MinHeaderLen || len(b) < hlen {
		return nil, fmt.Errorf("ipv4 header length %d: %w", hlen, ErrTruncated)
	}
	total := int(be16(b[2:]))
	if total < hlen || total > len(b) {
		return nil, fmt.Errorf("ipv4 total length %d: %w", total, ErrTruncated)
	}
	if Checksum(b[:hlen]) != 0 {
		return nil, fmt.Errorf("ipv4: %w", ErrBadChecksum)
	}
	flags := be16(b[6:])
	p := &IPv4{
		TOS:      b[1],
		ID:       be16(b[4:]),
		DontFrag: flags&0x4000 != 0,
		MoreFrag: flags&0x2000 != 0,
		FragOff:  flags & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
	}
	p.Options = view(b, IPv4MinHeaderLen, hlen)
	p.Payload = view(b, hlen, total)
	return p, nil
}
