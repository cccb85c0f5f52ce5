package dhcp4

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

var (
	serverID = netip.MustParseAddr("192.168.12.1")
	mask     = netip.MustParseAddr("255.255.255.0")
	router   = netip.MustParseAddr("192.168.12.1")
	dns1     = netip.MustParseAddr("192.168.12.253")
)

func testConfig() ServerConfig {
	return ServerConfig{
		ServerID:   serverID,
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.103"),
		SubnetMask: mask,
		Router:     router,
		DNS:        []netip.Addr{dns1},
		DomainName: "rfc8925.com",
		LeaseTime:  time.Hour,
	}
}

type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func mac(b byte) [6]byte { return [6]byte{2, 0, 0, 0, 0, b} }

func newServer(t *testing.T, cfg ServerConfig, clk *fakeClock) *Server {
	t.Helper()
	s, err := NewServer(cfg, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func discover(xid uint32, chaddr [6]byte, want108 bool) *Message {
	m := NewMessage(OpRequest, xid, chaddr)
	m.SetType(Discover)
	prl := []byte{OptSubnetMask, OptRouter, OptDNSServers}
	if want108 {
		prl = append(prl, OptIPv6OnlyPreferred)
	}
	m.Options[OptParamRequestList] = prl
	return m
}

func request(xid uint32, chaddr [6]byte, addr, sid netip.Addr) *Message {
	m := NewMessage(OpRequest, xid, chaddr)
	m.SetType(Request)
	m.SetIPv4Option(OptRequestedIP, addr)
	m.SetIPv4Option(OptServerID, sid)
	return m
}

func TestMessageRoundTrip(t *testing.T) {
	m := NewMessage(OpRequest, 0xdeadbeef, mac(9))
	m.Secs = 4
	m.Broadcast = true
	m.SetType(Discover)
	m.Options[OptHostname] = []byte("nintendo-switch")
	m.Options[OptParamRequestList] = []byte{1, 3, 6, 108}
	m.SetIPv4Option(OptRequestedIP, netip.MustParseAddr("192.168.12.101"))

	out, err := Parse(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != OpRequest || out.XID != 0xdeadbeef || out.CHAddr != mac(9) || !out.Broadcast || out.Secs != 4 {
		t.Errorf("header mismatch: %+v", out)
	}
	if out.Type() != Discover {
		t.Errorf("type = %d", out.Type())
	}
	if string(out.Options[OptHostname]) != "nintendo-switch" {
		t.Errorf("hostname = %q", out.Options[OptHostname])
	}
	if !out.RequestsOption(OptIPv6OnlyPreferred) || out.RequestsOption(200) {
		t.Error("RequestsOption wrong")
	}
	if got, ok := out.IPv4Option(OptRequestedIP); !ok || got != netip.MustParseAddr("192.168.12.101") {
		t.Errorf("requested IP = %v/%v", got, ok)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(make([]byte, 100)); err == nil {
		t.Error("short buffer accepted")
	}
	b := NewMessage(OpRequest, 1, mac(1)).Marshal()
	b[fixedLen] = 0 // corrupt cookie
	if _, err := Parse(b); err == nil {
		t.Error("bad cookie accepted")
	}
}

func TestParseRejectsTruncatedOption(t *testing.T) {
	m := NewMessage(OpRequest, 1, mac(1))
	m.Options[OptHostname] = []byte("abcdef")
	b := m.Marshal()
	// Cut inside the hostname option (drop end marker and some bytes).
	if _, err := Parse(b[:len(b)-4]); err == nil {
		t.Error("truncated option accepted")
	}
}

func TestOption108Encoding(t *testing.T) {
	m := NewMessage(OpReply, 1, mac(1))
	m.SetIPv6OnlyPreferred(1800)
	secs, ok := m.IPv6OnlyPreferred()
	if !ok || secs != 1800 {
		t.Errorf("option 108 = %d/%v", secs, ok)
	}
	if _, ok := NewMessage(OpReply, 1, mac(1)).IPv6OnlyPreferred(); ok {
		t.Error("absent option 108 reported present")
	}
}

func TestDORAHappyPath(t *testing.T) {
	clk := newFakeClock()
	s := newServer(t, testConfig(), clk)

	offer := s.Handle(discover(1, mac(1), false))
	if offer == nil || offer.Type() != Offer {
		t.Fatalf("offer = %+v", offer)
	}
	if offer.YIAddr != netip.MustParseAddr("192.168.12.100") {
		t.Errorf("offered %v", offer.YIAddr)
	}
	if _, has := offer.IPv6OnlyPreferred(); has {
		t.Error("option 108 offered to a client that did not request it")
	}
	if dnsList := offer.IPv4ListOption(OptDNSServers); len(dnsList) != 1 || dnsList[0] != dns1 {
		t.Errorf("dns option = %v", dnsList)
	}
	if string(offer.Options[OptDomainName]) != "rfc8925.com" {
		t.Errorf("domain = %q", offer.Options[OptDomainName])
	}

	ack := s.Handle(request(1, mac(1), offer.YIAddr, serverID))
	if ack == nil || ack.Type() != ACK || ack.YIAddr != offer.YIAddr {
		t.Fatalf("ack = %+v", ack)
	}
	if s.LeaseCount() != 1 {
		t.Errorf("lease count = %d", s.LeaseCount())
	}
}

func TestRFC8925ClientGetsOption108AndNoAddress(t *testing.T) {
	cfg := testConfig()
	cfg.V6OnlyWait = 30 * time.Minute
	clk := newFakeClock()
	s := newServer(t, cfg, clk)

	offer := s.Handle(discover(2, mac(2), true))
	if offer == nil || offer.Type() != Offer {
		t.Fatalf("offer = %+v", offer)
	}
	secs, ok := offer.IPv6OnlyPreferred()
	if !ok || secs != 1800 {
		t.Errorf("option 108 = %d/%v, want 1800", secs, ok)
	}
	if offer.YIAddr != (netip.AddrFrom4([4]byte{})) {
		t.Errorf("yiaddr = %v, want unset (no address committed)", offer.YIAddr)
	}
	if s.LeaseCount() != 0 {
		t.Errorf("lease committed for RFC 8925 client: %d", s.LeaseCount())
	}
	if s.Option108Sent != 1 {
		t.Errorf("Option108Sent = %d", s.Option108Sent)
	}
}

func TestLegacyClientIgnoredByOption108Scope(t *testing.T) {
	// A scope with V6OnlyWait still serves plain IPv4 to clients that do
	// not request option 108 (IPv6-mostly behaviour, as at SC23).
	cfg := testConfig()
	cfg.V6OnlyWait = 30 * time.Minute
	s := newServer(t, cfg, newFakeClock())
	offer := s.Handle(discover(3, mac(3), false))
	if offer == nil || !offer.YIAddr.Is4() || offer.YIAddr == (netip.AddrFrom4([4]byte{})) {
		t.Fatalf("legacy client got no address: %+v", offer)
	}
	if _, has := offer.IPv6OnlyPreferred(); has {
		t.Error("legacy client received option 108")
	}
}

func TestRequestWrongServerIgnored(t *testing.T) {
	s := newServer(t, testConfig(), newFakeClock())
	s.Handle(discover(4, mac(4), false))
	other := netip.MustParseAddr("10.0.0.1")
	if resp := s.Handle(request(4, mac(4), netip.MustParseAddr("192.168.12.100"), other)); resp != nil {
		t.Errorf("request addressed to another server was answered: %+v", resp)
	}
}

func TestRequestUnknownLeaseNAKed(t *testing.T) {
	s := newServer(t, testConfig(), newFakeClock())
	resp := s.Handle(request(5, mac(5), netip.MustParseAddr("192.168.12.100"), serverID))
	if resp == nil || resp.Type() != NAK {
		t.Fatalf("want NAK, got %+v", resp)
	}
}

func TestPoolExhaustionAndReclaim(t *testing.T) {
	clk := newFakeClock()
	s := newServer(t, testConfig(), clk) // pool of 4

	for i := byte(0); i < 4; i++ {
		offer := s.Handle(discover(uint32(i), mac(10+i), false))
		if offer == nil {
			t.Fatalf("offer %d = nil", i)
		}
		if ack := s.Handle(request(uint32(i), mac(10+i), offer.YIAddr, serverID)); ack == nil || ack.Type() != ACK {
			t.Fatalf("ack %d failed", i)
		}
	}
	// Fifth client: pool exhausted -> silence.
	if resp := s.Handle(discover(99, mac(99), false)); resp != nil {
		t.Fatalf("exhausted pool still offered %+v", resp)
	}
	if s.PoolExhausted != 1 {
		t.Errorf("PoolExhausted = %d", s.PoolExhausted)
	}

	// After leases expire, the address is reclaimed.
	clk.advance(2 * time.Hour)
	offer := s.Handle(discover(100, mac(100), false))
	if offer == nil {
		t.Fatal("no offer after lease expiry")
	}
}

func TestSameClientKeepsAddress(t *testing.T) {
	s := newServer(t, testConfig(), newFakeClock())
	o1 := s.Handle(discover(1, mac(7), false))
	s.Handle(request(1, mac(7), o1.YIAddr, serverID))
	o2 := s.Handle(discover(2, mac(7), false))
	if o1.YIAddr != o2.YIAddr {
		t.Errorf("client re-offered different address: %v then %v", o1.YIAddr, o2.YIAddr)
	}
}

func TestRequestedIPHonoredWhenFree(t *testing.T) {
	s := newServer(t, testConfig(), newFakeClock())
	d := discover(1, mac(8), false)
	d.SetIPv4Option(OptRequestedIP, netip.MustParseAddr("192.168.12.102"))
	offer := s.Handle(d)
	if offer.YIAddr != netip.MustParseAddr("192.168.12.102") {
		t.Errorf("requested IP not honored: %v", offer.YIAddr)
	}
}

func TestReleaseFreesAddress(t *testing.T) {
	s := newServer(t, testConfig(), newFakeClock())
	o := s.Handle(discover(1, mac(9), false))
	s.Handle(request(1, mac(9), o.YIAddr, serverID))
	rel := NewMessage(OpRequest, 2, mac(9))
	rel.SetType(Release)
	if resp := s.Handle(rel); resp != nil {
		t.Errorf("release answered: %+v", resp)
	}
	if s.LeaseCount() != 0 {
		t.Errorf("lease not released: %d", s.LeaseCount())
	}
}

func TestRenewViaRequestExtendsLease(t *testing.T) {
	clk := newFakeClock()
	s := newServer(t, testConfig(), clk)
	o := s.Handle(discover(1, mac(11), false))
	s.Handle(request(1, mac(11), o.YIAddr, serverID))

	clk.advance(50 * time.Minute)
	// Renew: REQUEST with ciaddr, no requested-IP option.
	renew := NewMessage(OpRequest, 2, mac(11))
	renew.SetType(Request)
	renew.CIAddr = o.YIAddr
	ack := s.Handle(renew)
	if ack == nil || ack.Type() != ACK {
		t.Fatalf("renew failed: %+v", ack)
	}
	clk.advance(30 * time.Minute) // 80min after start; would be expired without renewal
	if _, ok := s.LeaseFor(mac(11)); !ok {
		t.Error("renewed lease expired prematurely")
	}
}

func TestInformAnswersWithoutLease(t *testing.T) {
	s := newServer(t, testConfig(), newFakeClock())
	inf := NewMessage(OpRequest, 3, mac(12))
	inf.SetType(Inform)
	resp := s.Handle(inf)
	if resp == nil || resp.Type() != ACK {
		t.Fatalf("inform: %+v", resp)
	}
	if s.LeaseCount() != 0 {
		t.Error("inform created a lease")
	}
}

func TestServerConfigValidation(t *testing.T) {
	clk := newFakeClock()
	bad := testConfig()
	bad.PoolStart, bad.PoolEnd = bad.PoolEnd, bad.PoolStart
	if _, err := NewServer(bad, clk.now); err == nil {
		t.Error("inverted pool accepted")
	}
	bad = testConfig()
	bad.ServerID = netip.Addr{}
	if _, err := NewServer(bad, clk.now); err == nil {
		t.Error("missing server ID accepted")
	}
}

// Property: message marshalling round-trips arbitrary XIDs, MACs and
// option payloads.
func TestMessageRoundTripProperty(t *testing.T) {
	f := func(xid uint32, chaddr [6]byte, hostname []byte, secs uint16) bool {
		if len(hostname) > 255 {
			hostname = hostname[:255]
		}
		m := NewMessage(OpRequest, xid, chaddr)
		m.Secs = secs
		m.SetType(Discover)
		if len(hostname) > 0 {
			m.Options[OptHostname] = hostname
		}
		out, err := Parse(m.Marshal())
		if err != nil {
			return false
		}
		if out.XID != xid || out.CHAddr != chaddr || out.Secs != secs {
			return false
		}
		if len(hostname) > 0 && string(out.Options[OptHostname]) != string(hostname) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSetDomainsOverlap pins which per-domain pool layouts SetDomains
// accepts, and that an overlap error names one fixed pair no matter how
// the map iterates.
func TestSetDomainsOverlap(t *testing.T) {
	cfg := testConfig()
	cfg.PoolStart = netip.MustParseAddr("192.168.12.10")
	cfg.PoolEnd = netip.MustParseAddr("192.168.12.200")
	ip := func(last byte) netip.Addr { return netip.AddrFrom4([4]byte{192, 168, 12, last}) }
	pool := func(a, b byte) DomainPool { return DomainPool{Start: ip(a), End: ip(b)} }
	lookup := func([6]byte) int { return 0 }
	tests := []struct {
		name    string
		pools   map[int]DomainPool
		wantErr string // "" = accepted
	}{
		{"empty", map[int]DomainPool{}, ""},
		{"single", map[int]DomainPool{0: pool(10, 20)}, ""},
		{"adjacent", map[int]DomainPool{0: pool(10, 19), 1: pool(20, 29), 2: pool(30, 30)}, ""},
		{"gapped out of id order", map[int]DomainPool{7: pool(50, 60), 3: pool(10, 20), 5: pool(30, 40)}, ""},
		{"overlap by one address", map[int]DomainPool{0: pool(10, 20), 1: pool(20, 30)},
			"dhcp4: domain 1 pool overlaps domain 0"},
		{"nested", map[int]DomainPool{4: pool(10, 100), 2: pool(40, 50)},
			"dhcp4: domain 2 pool overlaps domain 4"},
		{"nested after a wide pool", map[int]DomainPool{0: pool(10, 100), 1: pool(20, 30), 2: pool(40, 50)},
			"dhcp4: domain 1 pool overlaps domain 0"},
		{"identical", map[int]DomainPool{9: pool(10, 20), 8: pool(10, 20)},
			"dhcp4: domain 9 pool overlaps domain 8"},
		{"first error in Start order", map[int]DomainPool{0: pool(10, 20), 1: pool(15, 25), 2: pool(12, 11)},
			"dhcp4: domain 2 pool 192.168.12.12-192.168.12.11 invalid"},
		{"overlap before a later invalid pool", map[int]DomainPool{0: pool(10, 20), 1: pool(15, 25), 2: pool(40, 30)},
			"dhcp4: domain 1 pool overlaps domain 0"},
		{"outside scope", map[int]DomainPool{0: pool(5, 20)},
			"dhcp4: domain 0 pool 192.168.12.5-192.168.12.20 outside scope 192.168.12.10-192.168.12.200"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// Repeat so differing map iteration orders get a chance to
			// name a different pair.
			for i := 0; i < 20; i++ {
				err := newServer(t, cfg, newFakeClock()).SetDomains(tt.pools, lookup)
				got := ""
				if err != nil {
					got = err.Error()
				}
				if got != tt.wantErr {
					t.Fatalf("SetDomains = %q, want %q", got, tt.wantErr)
				}
			}
		})
	}
}

// TestSetDomainsMatchesPairwiseCheck holds the sweep to the pairwise
// definition of overlap over random layouts of up to six pools.
func TestSetDomainsMatchesPairwiseCheck(t *testing.T) {
	cfg := testConfig()
	cfg.PoolStart = netip.MustParseAddr("192.168.12.0")
	cfg.PoolEnd = netip.MustParseAddr("192.168.12.63")
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		pools := map[int]DomainPool{}
		for id := 0; id < 1+rng.Intn(6); id++ {
			a, b := byte(rng.Intn(64)), byte(rng.Intn(64))
			if a > b {
				a, b = b, a
			}
			pools[id] = DomainPool{Start: netip.AddrFrom4([4]byte{192, 168, 12, a}), End: netip.AddrFrom4([4]byte{192, 168, 12, b})}
		}
		overlap := false
		for i, p := range pools {
			for j, q := range pools {
				if i != j && p.Start.Compare(q.End) <= 0 && q.Start.Compare(p.End) <= 0 {
					overlap = true
				}
			}
		}
		err := newServer(t, cfg, newFakeClock()).SetDomains(pools, func([6]byte) int { return 0 })
		if (err != nil) != overlap {
			t.Fatalf("pools %v: SetDomains error %v, pairwise overlap %v", pools, err, overlap)
		}
	}
}
