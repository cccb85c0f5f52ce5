package packet

import (
	"fmt"
	"net/netip"
)

// TCPMinHeaderLen is the option-free TCP header size.
const TCPMinHeaderLen = 20

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// TCP is a parsed TCP segment (RFC 9293). Options are preserved opaquely.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Options []byte
	Payload []byte
}

// Marshal encodes the segment with the checksum computed over the
// pseudo-header for src/dst.
func (t *TCP) Marshal(src, dst netip.Addr) []byte { return t.AppendMarshal(nil, src, dst) }

// AppendMarshal appends the encoded segment to b and returns the extended
// slice; bytes already in b are left untouched.
func (t *TCP) AppendMarshal(b []byte, src, dst netip.Addr) []byte {
	optLen := (len(t.Options) + 3) &^ 3
	hlen := TCPMinHeaderLen + optLen
	b, s := grow(b, hlen+len(t.Payload))
	clear(s[:hlen])
	put16(s[0:], t.SrcPort)
	put16(s[2:], t.DstPort)
	put32(s[4:], t.Seq)
	put32(s[8:], t.Ack)
	s[12] = uint8(hlen/4) << 4
	s[13] = t.Flags
	win := t.Window
	if win == 0 {
		win = 65535
	}
	put16(s[14:], win)
	copy(s[TCPMinHeaderLen:hlen], t.Options)
	copy(s[hlen:], t.Payload)
	put16(s[16:], PseudoHeaderChecksum(ProtoTCP, src, dst, s))
	return b
}

// ParseTCP decodes a TCP segment and verifies its checksum. Options and
// Payload are views into b, not copies.
func ParseTCP(b []byte, src, dst netip.Addr) (*TCP, error) {
	if len(b) < TCPMinHeaderLen {
		return nil, fmt.Errorf("tcp header: %w", ErrTruncated)
	}
	hlen := int(b[12]>>4) * 4
	if hlen < TCPMinHeaderLen || hlen > len(b) {
		return nil, fmt.Errorf("tcp data offset %d: %w", hlen, ErrTruncated)
	}
	if PseudoHeaderChecksum(ProtoTCP, src, dst, b) != 0 {
		return nil, fmt.Errorf("tcp: %w", ErrBadChecksum)
	}
	t := &TCP{
		SrcPort: be16(b[0:]),
		DstPort: be16(b[2:]),
		Seq:     be32(b[4:]),
		Ack:     be32(b[8:]),
		Flags:   b[13],
		Window:  be16(b[14:]),
	}
	t.Options = view(b, TCPMinHeaderLen, hlen)
	t.Payload = view(b, hlen, len(b))
	return t, nil
}

// HasFlags reports whether every flag in mask is set.
func (t *TCP) HasFlags(mask uint8) bool { return t.Flags&mask == mask }
