// Package packet implements wire-format encoding and decoding for the
// layer-3 and layer-4 protocols the testbed exchanges over the simulated
// fabric: IPv4, IPv6, UDP, TCP, ICMPv4, ICMPv6 and ARP. Every header is
// encoded byte-for-byte per its RFC so translation components (NAT64,
// CLAT, NAT44) can operate exactly as the specifications describe.
//
// Parsers do not copy: the Payload, Options and Body of a parsed packet
// are views into the parser's input, valid for as long as the input is,
// and clipped so that appending to one never writes into the input.
// Encoders append: AppendMarshal writes the encoding after the bytes
// already in its buffer, and Marshal is AppendMarshal(nil). The buffer's
// spare capacity must not overlap the packet's own slices.
package packet

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
	"slices"
)

// Checksum computes the RFC 1071 internet checksum over data.
func Checksum(data []byte) uint16 {
	return finishChecksum(sumBytes(0, data))
}

// sumBytes adds data, read as 16-bit big-endian words, into the
// ones'-complement accumulator sum. It takes 8 bytes at a time as one
// 64-bit word with end-around carry: 2^16 ≡ 1 (mod 2^16-1), so a 64-bit
// word is congruent to the sum of its four 16-bit words, and the folded
// result equals the word-at-a-time sum (RFC 1071 §2(A), §2(B)). The
// return value is folded below 2^32, so callers can add a few small
// pseudo-header terms without overflow.
func sumBytes(sum uint64, data []byte) uint64 {
	var carry uint64
	for len(data) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), 0)
		sum += carry
		data = data[8:]
	}
	for len(data) >= 2 {
		sum, carry = bits.Add64(sum, uint64(binary.BigEndian.Uint16(data)), 0)
		sum += carry
		data = data[2:]
	}
	if len(data) == 1 {
		sum, carry = bits.Add64(sum, uint64(data[0])<<8, 0)
		sum += carry
	}
	sum = sum&0xffffffff + sum>>32
	return sum&0xffffffff + sum>>32
}

func finishChecksum(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// PseudoHeaderChecksum computes the transport checksum for proto over
// payload using the IPv4 or IPv6 pseudo-header for src/dst. Both
// addresses must be the same family.
func PseudoHeaderChecksum(proto uint8, src, dst netip.Addr, payload []byte) uint16 {
	var sum uint64
	if src.Is4() {
		s, d := src.As4(), dst.As4()
		sum = sumBytes(sum, s[:])
		sum = sumBytes(sum, d[:])
		sum += uint64(proto)
		sum += uint64(len(payload))
	} else {
		s, d := src.As16(), dst.As16()
		sum = sumBytes(sum, s[:])
		sum = sumBytes(sum, d[:])
		sum += uint64(len(payload)) // upper-layer packet length
		sum += uint64(proto)
	}
	sum = sumBytes(sum, payload)
	return finishChecksum(sum)
}

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func put16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func put32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// view returns b[lo:hi] with its capacity clipped at hi, so an append to
// the view reallocates instead of writing into the bytes after it. An
// empty view is nil.
func view(b []byte, lo, hi int) []byte {
	if lo == hi {
		return nil
	}
	return b[lo:hi:hi]
}

// grow extends b by n bytes and returns the extended slice and its n-byte
// tail. The tail may hold stale bytes from a reused buffer; encoders
// write or clear every byte of it.
func grow(b []byte, n int) (all, tail []byte) {
	off := len(b)
	b = slices.Grow(b, n)[:off+n]
	return b, b[off:]
}
