package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

// The fuzz targets assert that every parser is total and that parsing
// and encoding respect the buffer ownership rule the translators
// (NAT64/CLAT/NAT44) and host stacks depend on. For any input:
//
//   - parsing never panics and never writes its input (parsed packets
//     are views into it);
//   - a parsed packet re-encodes, and parse → AppendMarshal → parse
//     reaches a fixed point;
//   - AppendMarshal(prefix) leaves prefix intact and appends exactly
//     Marshal()'s bytes, whatever stale bytes the spare capacity holds;
//   - Checksum agrees with a byte-at-a-time reference for every length
//     at every start offset.
//
// Seed corpora live in testdata/fuzz/<target>; `go test` replays them,
// `go test -fuzz <target>` explores from them.

// checkCodec checks one parser/encoder pair on data.
func checkCodec[P any](t *testing.T, data []byte, parse func([]byte) (P, error), appendTo func(P, []byte) []byte) {
	t.Helper()
	checkChecksum(t, data)
	orig := bytes.Clone(data)
	p, err := parse(data)
	if !bytes.Equal(data, orig) {
		t.Fatalf("parse wrote its input")
	}
	if err != nil {
		return
	}
	enc := appendTo(p, nil)
	if !bytes.Equal(data, orig) {
		t.Fatalf("encoding a parsed packet wrote the parser's input")
	}

	prefix := []byte("prefix:")
	stale := bytes.Repeat([]byte{0xA5}, len(prefix)+len(enc)+16)[:len(prefix)]
	copy(stale, prefix)
	tight := bytes.Clone(prefix)[:len(prefix):len(prefix)]
	for _, buf := range [][]byte{stale, tight} {
		out := appendTo(p, buf)
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("AppendMarshal changed its prefix: %q", out[:len(prefix)])
		}
		if !bytes.Equal(out[len(prefix):], enc) {
			t.Fatalf("AppendMarshal appended\n%x\nMarshal encodes\n%x", out[len(prefix):], enc)
		}
	}

	q, err := parse(enc)
	if err != nil {
		t.Fatalf("re-parse of %x: %v", enc, err)
	}
	if again := appendTo(q, nil); !bytes.Equal(again, enc) {
		t.Fatalf("parse/encode is not a fixed point:\n%x\n%x", enc, again)
	}
}

// refChecksum is RFC 1071 one byte at a time.
func refChecksum(b []byte) uint16 {
	var sum uint64
	for i, c := range b {
		if i%2 == 0 {
			sum += uint64(c) << 8
		} else {
			sum += uint64(c)
		}
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// checkChecksum compares Checksum with refChecksum on every sub-slice of
// the first 256 bytes of data starting at offsets 0..7.
func checkChecksum(t *testing.T, data []byte) {
	t.Helper()
	data = data[:min(len(data), 256)]
	for lo := 0; lo < min(len(data), 8); lo++ {
		for hi := lo; hi <= len(data); hi++ {
			if got, want := Checksum(data[lo:hi]), refChecksum(data[lo:hi]); got != want {
				t.Fatalf("Checksum(data[%d:%d]) = %#04x, reference %#04x", lo, hi, got, want)
			}
		}
	}
}

func FuzzParseIPv4(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data, ParseIPv4, (*IPv4).AppendMarshal)
	})
}

func FuzzParseIPv6(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data, ParseIPv6, (*IPv6).AppendMarshal)
	})
}

func FuzzParseTCP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data,
			func(b []byte) (*TCP, error) { return ParseTCP(b, v6a, v6b) },
			func(s *TCP, b []byte) []byte { return s.AppendMarshal(b, v6a, v6b) })
	})
}

// FuzzParseUDP runs over IPv4 addresses, where a zero checksum is legal.
func FuzzParseUDP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data,
			func(b []byte) (*UDP, error) { return ParseUDP(b, v4a, v4b) },
			func(u *UDP, b []byte) []byte { return u.AppendMarshal(b, v4a, v4b) })
	})
}

func FuzzParseICMPv4(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data, ParseICMPv4, (*ICMP).AppendMarshalV4)
	})
}

func FuzzParseICMPv6(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data,
			func(b []byte) (*ICMP, error) { return ParseICMPv6(b, v6a, v6b) },
			func(m *ICMP, b []byte) []byte { return m.AppendMarshalV6(b, v6a, v6b) })
	})
}

// TestParseARPNeverPanics checks that ParseARP is total: arbitrary
// input may fail to parse but never panics, and a parsed packet
// re-marshals.
func TestParseARPNeverPanics(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		if a, err := ParseARP(data); err == nil {
			_ = a.Marshal()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("ParseARP panicked: %v", err)
	}
}
