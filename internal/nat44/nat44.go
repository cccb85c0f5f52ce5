// Package nat44 implements an IPv4 NAPT (RFC 3022 style) with a
// translation log. The testbed's 5G gateway NATs legacy IPv4 traffic,
// and the paper notes OMB M-21-31 requires logging every translation —
// one of Argonne's reasons to avoid NAT and prefer IPv6; the log lets
// the benchmark harness quantify that logging burden.
package nat44

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/packet"
)

// Errors reported by the translator.
var (
	ErrNoSession      = errors.New("nat44: no session for inbound packet")
	ErrPortsExhausted = errors.New("nat44: port pool exhausted")
	ErrUnsupported    = errors.New("nat44: unsupported protocol")
)

// LogEntry records one translation event per OMB M-21-31.
type LogEntry struct {
	When    time.Time
	Proto   uint8
	Inside  netip.Addr
	InPort  uint16
	Outside netip.Addr
	OutPort uint16
	Dst     netip.Addr
	DstPort uint16
}

// Translator is a stateful NAPT44.
type Translator struct {
	public  netip.Addr
	now     func() time.Time
	timeout time.Duration

	// Log holds one entry per new session (not per packet).
	Log []LogEntry

	state
}

// state is everything about a Translator that world reuse rewinds
// (session tables, port pool and counters); Checkpoint and Restore
// copy it whole through clone.
type state struct {
	outbound map[key]*session
	inbound  map[extKey]*session
	nextPort uint16
	portMin  uint16
	portMax  uint16

	Translated uint64
	Dropped    uint64
	// BytesOut / BytesIn count translated L4 payload octets per
	// direction (outbound = private→public), for flow-volume accounting.
	BytesOut uint64
	BytesIn  uint64
}

type key struct {
	proto uint8
	src   netip.Addr
	port  uint16
}

type extKey struct {
	proto uint8
	port  uint16
}

type session struct {
	inside   netip.Addr
	inPort   uint16
	extPort  uint16
	lastSeen time.Time
}

// New builds a NAPT44 mapping to the given public address.
func New(public netip.Addr, now func() time.Time) (*Translator, error) {
	if !public.Is4() {
		return nil, fmt.Errorf("nat44: public address %v must be IPv4", public)
	}
	return &Translator{public: public, now: now, timeout: 5 * time.Minute, state: state{
		outbound: make(map[key]*session),
		inbound:  make(map[extKey]*session),
		portMin:  32768,
		portMax:  65535,
		nextPort: 32768,
	}}, nil
}

// Public returns the translator's public address.
func (t *Translator) Public() netip.Addr { return t.public }

// SetPortRange constrains the external port pool (used when NAT44 and
// NAT64 share one public address and must not collide).
func (t *Translator) SetPortRange(min, max uint16) error {
	if min == 0 || min > max {
		return fmt.Errorf("nat44: bad port range %d..%d", min, max)
	}
	t.portMin, t.portMax, t.nextPort = min, max, min
	return nil
}

// FlushSessions drops every binding at once — the effect of a gateway
// power cycle on translator state. The port cursor survives, as does
// the compliance Log (M-21-31 translation records are exported off-box,
// not kept in translator RAM): external peers may hold connection state
// keyed by pre-flush ports, so those ports are not reused until the
// pool wraps.
func (t *Translator) FlushSessions() {
	clear(t.outbound)
	clear(t.inbound)
}

// SessionCount returns the number of live sessions.
func (t *Translator) SessionCount() int {
	n := 0
	now := t.now()
	for _, s := range t.outbound {
		if now.Sub(s.lastSeen) <= t.timeout {
			n++
		}
	}
	return n
}

// TranslateOut rewrites an outbound private-source packet to the public
// address, logging new sessions.
func (t *Translator) TranslateOut(p *packet.IPv4) (*packet.IPv4, error) {
	out := &packet.IPv4{TOS: p.TOS, ID: p.ID, DontFrag: p.DontFrag, TTL: p.TTL, Protocol: p.Protocol, Src: t.public, Dst: p.Dst}
	switch p.Protocol {
	case packet.ProtoUDP:
		u, err := packet.ParseUDP(p.Payload, p.Src, p.Dst)
		if err != nil {
			return nil, err
		}
		s, err := t.session(p.Protocol, p.Src, u.SrcPort, p.Dst, u.DstPort)
		if err != nil {
			return nil, err
		}
		out.Payload = (&packet.UDP{SrcPort: s.extPort, DstPort: u.DstPort, Payload: u.Payload}).Marshal(out.Src, out.Dst)
	case packet.ProtoTCP:
		tc, err := packet.ParseTCP(p.Payload, p.Src, p.Dst)
		if err != nil {
			return nil, err
		}
		s, err := t.session(p.Protocol, p.Src, tc.SrcPort, p.Dst, tc.DstPort)
		if err != nil {
			return nil, err
		}
		tc2 := *tc
		tc2.SrcPort = s.extPort
		out.Payload = tc2.Marshal(out.Src, out.Dst)
	case packet.ProtoICMP:
		ic, err := packet.ParseICMPv4(p.Payload)
		if err != nil {
			return nil, err
		}
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err != nil {
			return nil, err
		}
		s, err := t.session(p.Protocol, p.Src, id, p.Dst, id)
		if err != nil {
			return nil, err
		}
		out.Payload = (&packet.ICMP{Type: ic.Type, Code: ic.Code, Body: packet.EchoBody(s.extPort, seq, data)}).MarshalV4()
	default:
		return nil, fmt.Errorf("%w: protocol %d", ErrUnsupported, p.Protocol)
	}
	t.Translated++
	t.BytesOut += uint64(len(p.Payload))
	return out, nil
}

// TranslateIn rewrites an inbound public-destination packet back to the
// private host.
func (t *Translator) TranslateIn(p *packet.IPv4) (*packet.IPv4, error) {
	if p.Dst != t.public {
		t.Dropped++
		return nil, ErrNoSession
	}
	lookup := func(proto uint8, extPort uint16) (*session, error) {
		s, ok := t.inbound[extKey{proto: proto, port: extPort}]
		if !ok || t.now().Sub(s.lastSeen) > t.timeout {
			t.Dropped++
			return nil, ErrNoSession
		}
		s.lastSeen = t.now()
		return s, nil
	}
	out := &packet.IPv4{TOS: p.TOS, ID: p.ID, DontFrag: p.DontFrag, TTL: p.TTL, Protocol: p.Protocol, Src: p.Src}
	switch p.Protocol {
	case packet.ProtoUDP:
		u, err := packet.ParseUDP(p.Payload, p.Src, p.Dst)
		if err != nil {
			return nil, err
		}
		s, err := lookup(p.Protocol, u.DstPort)
		if err != nil {
			return nil, err
		}
		out.Dst = s.inside
		out.Payload = (&packet.UDP{SrcPort: u.SrcPort, DstPort: s.inPort, Payload: u.Payload}).Marshal(out.Src, out.Dst)
	case packet.ProtoTCP:
		tc, err := packet.ParseTCP(p.Payload, p.Src, p.Dst)
		if err != nil {
			return nil, err
		}
		s, err := lookup(p.Protocol, tc.DstPort)
		if err != nil {
			return nil, err
		}
		out.Dst = s.inside
		tc2 := *tc
		tc2.DstPort = s.inPort
		out.Payload = tc2.Marshal(out.Src, out.Dst)
	case packet.ProtoICMP:
		ic, err := packet.ParseICMPv4(p.Payload)
		if err != nil {
			return nil, err
		}
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err != nil {
			return nil, err
		}
		s, err := lookup(p.Protocol, id)
		if err != nil {
			return nil, err
		}
		out.Dst = s.inside
		out.Payload = (&packet.ICMP{Type: ic.Type, Code: ic.Code, Body: packet.EchoBody(s.inPort, seq, data)}).MarshalV4()
	default:
		return nil, fmt.Errorf("%w: protocol %d", ErrUnsupported, p.Protocol)
	}
	t.Translated++
	t.BytesIn += uint64(len(p.Payload))
	return out, nil
}

// session finds or creates the binding for an outbound flow, logging
// new sessions per M-21-31.
func (t *Translator) session(proto uint8, src netip.Addr, sport uint16, dst netip.Addr, dport uint16) (*session, error) {
	k := key{proto: proto, src: src, port: sport}
	if s, ok := t.outbound[k]; ok && t.now().Sub(s.lastSeen) <= t.timeout {
		s.lastSeen = t.now()
		return s, nil
	}
	ext, err := t.allocPort(proto)
	if err != nil {
		return nil, err
	}
	s := &session{inside: src, inPort: sport, extPort: ext, lastSeen: t.now()}
	t.outbound[k] = s
	t.inbound[extKey{proto: proto, port: ext}] = s
	t.Log = append(t.Log, LogEntry{
		When: t.now(), Proto: proto,
		Inside: src, InPort: sport,
		Outside: t.public, OutPort: ext,
		Dst: dst, DstPort: dport,
	})
	return s, nil
}

func (t *Translator) allocPort(proto uint8) (uint16, error) {
	span := int(t.portMax) - int(t.portMin) + 1
	for i := 0; i < span; i++ {
		p := t.nextPort
		if t.nextPort == t.portMax {
			t.nextPort = t.portMin
		} else {
			t.nextPort++
		}
		k := extKey{proto: proto, port: p}
		if s, ok := t.inbound[k]; !ok || t.now().Sub(s.lastSeen) > t.timeout {
			if s != nil {
				delete(t.outbound, key{proto: proto, src: s.inside, port: s.inPort})
			}
			return p, nil
		}
	}
	return 0, ErrPortsExhausted
}
