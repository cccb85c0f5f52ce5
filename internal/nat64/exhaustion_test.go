package nat64

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dns64"
	"repro/internal/packet"
)

// TestPerSourceQuotaRefusal pins the nat64-port-exhaustion mechanism:
// with MaxSessionsPerSource set, a source's first flow binds, its
// concurrent second flow is refused with ErrPortsExhausted, the refusal
// is counted, and a *different* source still binds — the quota is
// per-subscriber, not global.
func TestPerSourceQuotaRefusal(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	tr.MaxSessionsPerSource = 1

	if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 53, serverV4, "a")); err != nil {
		t.Fatalf("first flow: %v", err)
	}
	// The same flow refreshed is not a new session.
	if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 53, serverV4, "a2")); err != nil {
		t.Fatalf("same-flow refresh: %v", err)
	}
	if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5001, 53, serverV4, "b")); !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("second concurrent flow: err = %v, want ErrPortsExhausted", err)
	}
	if tr.PortsExhausted != 1 {
		t.Fatalf("PortsExhausted = %d, want 1", tr.PortsExhausted)
	}

	other := netip.MustParseAddr("2607:fb90:9bda:a425::51")
	if _, err := tr.TranslateV6ToV4(udp6(t, other, 5000, 53, serverV4, "c")); err != nil {
		t.Fatalf("other source blocked by a per-source quota: %v", err)
	}

	// Recovery rides expiry: once the first session idles out, the same
	// source binds again.
	clk.t = clk.t.Add(tr.Config().UDPTimeout + time.Second)
	if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5001, 53, serverV4, "d")); err != nil {
		t.Fatalf("post-expiry flow: %v", err)
	}
}

// TestPortPoolExhaustionCounted pins the second refusal site: a full
// external pool (allocPort failure) also increments PortsExhausted.
func TestPortPoolExhaustionCounted(t *testing.T) {
	clk := newClock()
	tr, err := New(Config{
		Prefix: dns64.WellKnownPrefix, PublicV4: publicV4,
		PortMin: 40000, PortMax: 40001,
	}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, uint16(5000+i), 53, serverV4, "x")); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if _, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5002, 53, serverV4, "x")); !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("pool overflow: err = %v, want ErrPortsExhausted", err)
	}
	if tr.PortsExhausted != 1 {
		t.Fatalf("PortsExhausted = %d, want 1", tr.PortsExhausted)
	}
}

// TestSetPortRange pins the Budget hook's contract: validation of the
// bounds, and the cursor restarting at the new minimum.
func TestSetPortRange(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	if err := tr.SetPortRange(0, 100); err == nil {
		t.Error("min 0 accepted")
	}
	if err := tr.SetPortRange(200, 100); err == nil {
		t.Error("inverted range accepted")
	}
	if err := tr.SetPortRange(40000, 40003); err != nil {
		t.Fatal(err)
	}
	out, err := tr.TranslateV6ToV4(udp6(t, clientV6, 5000, 53, serverV4, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if p := extPortOf(t, out); p != 40000 {
		t.Fatalf("first allocation after SetPortRange = %d, want 40000", p)
	}
}

// TestSetSessionTimeoutsPartial pins that non-positive arguments leave
// the corresponding timeout untouched.
func TestSetSessionTimeoutsPartial(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	orig := tr.Config()
	tr.SetSessionTimeouts(5*time.Second, 0, -time.Second, 0)
	got := tr.Config()
	if got.UDPTimeout != 5*time.Second {
		t.Errorf("UDPTimeout = %v, want 5s", got.UDPTimeout)
	}
	if got.TCPTimeout != orig.TCPTimeout || got.ICMPTimeout != orig.ICMPTimeout || got.TCPTransTimeout != orig.TCPTransTimeout {
		t.Errorf("untouched timeouts changed: %+v vs %+v", got, orig)
	}
}

// TestFlushPreservesPortCursor is the reuse-avoidance property, pinned
// deterministically: FlushSessions drops all bindings but must NOT
// reset the allocation cursor — external peers may associate pre-flush
// ports with dead sessions for minutes (RFC 6146 §3.5.1.1), so fresh
// allocations keep walking forward until the pool forces a wrap.
func TestFlushPreservesPortCursor(t *testing.T) {
	clk := newClock()
	tr, err := New(Config{
		Prefix: dns64.WellKnownPrefix, PublicV4: publicV4,
		PortMin: 40000, PortMax: 40007,
	}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	pre := make(map[uint16]bool)
	for i := 0; i < 5; i++ {
		out, err := tr.TranslateV6ToV4(udp6(t, clientV6, uint16(5000+i), 53, serverV4, "x"))
		if err != nil {
			t.Fatal(err)
		}
		pre[extPortOf(t, out)] = true
	}
	tr.FlushSessions() // gateway reboot
	for i := 0; i < 3; i++ {
		out, err := tr.TranslateV6ToV4(udp6(t, clientV6, uint16(6000+i), 53, serverV4, "y"))
		if err != nil {
			t.Fatal(err)
		}
		if p := extPortOf(t, out); pre[p] {
			t.Fatalf("post-flush allocation reissued pre-flush port %d", p)
		}
	}
}

// TestPortReuseAvoidanceProperty is the randomized version: under any
// interleaving of flow bursts and reboots against a near-full pool, a
// port is never handed to a new session while a session created before
// the most recent flush could still be keyed to it by the peer — i.e.
// post-flush allocations avoid all pre-flush ports until the cursor has
// consumed every never-used port in the pool.
func TestPortReuseAvoidanceProperty(t *testing.T) {
	const poolMin, poolMax = 40000, 40015 // 16 ports
	f := func(ops []uint8) bool {
		clk := newClock()
		tr, err := New(Config{
			Prefix: dns64.WellKnownPrefix, PublicV4: publicV4,
			PortMin: poolMin, PortMax: poolMax,
		}, clk.now)
		if err != nil {
			return false
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		sport := uint16(5000)
		preFlush := make(map[uint16]bool) // ports live at the last flush
		issuedSince := 0                  // allocations since the last flush
		for _, op := range ops {
			if op%8 == 0 {
				// Reboot: every currently-issued port becomes one a peer
				// may still hold state for.
				for p := range portsInUse(tr) {
					preFlush[p] = true
				}
				tr.FlushSessions()
				issuedSince = 0
				continue
			}
			sport++
			out, err := tr.TranslateV6ToV4(udp6ForProp(clientV6, sport))
			if errors.Is(err, ErrPortsExhausted) {
				continue
			}
			if err != nil {
				return false
			}
			p := extPortOfRaw(out)
			issuedSince++
			// The pool has 16 ports; until 16 allocations have happened
			// since the flush, the cursor cannot have wrapped, so no
			// pre-flush port may reappear.
			if issuedSince <= poolMax-poolMin+1-len(preFlush) && preFlush[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLiveSessionsKeepBindingsProperty: across random flows, clock
// jumps and flushes over a 3-port pool, no live session ever loses its
// outbound binding or its inbound entry. The cursor wraps every third
// allocation, so it keeps landing on ports whose expired session was
// already replaced: a flow that resumed after expiry got a new port,
// and reclaiming its old port must not unbind the resumed session.
func TestLiveSessionsKeepBindingsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		clk := newClock()
		tr, err := New(Config{
			Prefix: dns64.WellKnownPrefix, PublicV4: publicV4,
			PortMin: 40000, PortMax: 40002,
		}, clk.now)
		if err != nil {
			return false
		}
		if len(ops) > 48 {
			ops = ops[:48]
		}
		bound := make(map[mapKey]*Session) // sessions handed out since the last flush
		for _, op := range ops {
			switch op % 8 {
			case 5:
				clk.t = clk.t.Add(time.Second)
			case 6:
				clk.t = clk.t.Add(DefaultUDPTimeout + time.Second)
			case 7:
				tr.FlushSessions()
				clear(bound)
			default:
				sport := 5000 + uint16(op>>3)%4
				_, err := tr.TranslateV6ToV4(udp6ForProp(clientV6, sport))
				if errors.Is(err, ErrPortsExhausted) {
					continue
				}
				if err != nil {
					return false
				}
				k := mapKey{proto: packet.ProtoUDP, src: clientV6, port: sport}
				bound[k] = tr.outbound[k]
			}
			now := clk.now()
			for k, s := range bound {
				if tr.expired(s, now) {
					delete(bound, k)
					continue
				}
				if tr.outbound[k] != s || tr.inbound[extKey{proto: s.Proto, port: s.ExtPort}] != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// extPortOf extracts the external source port the translator stamped on
// an outbound UDP packet.
func extPortOf(t *testing.T, out *packet.IPv4) uint16 {
	t.Helper()
	u, err := packet.ParseUDP(out.Payload, out.Src, out.Dst)
	if err != nil {
		t.Fatal(err)
	}
	return u.SrcPort
}

func extPortOfRaw(out *packet.IPv4) uint16 {
	u, err := packet.ParseUDP(out.Payload, out.Src, out.Dst)
	if err != nil {
		return 0
	}
	return u.SrcPort
}

// portsInUse returns the external ports of the translator's current
// (unexpired) sessions.
func portsInUse(tr *Translator) map[uint16]bool {
	out := make(map[uint16]bool)
	now := tr.now()
	for _, s := range tr.outbound {
		if !tr.expired(s, now) {
			out[s.ExtPort] = true
		}
	}
	return out
}
