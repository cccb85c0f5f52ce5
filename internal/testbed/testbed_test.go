package testbed

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/portal"
	"repro/internal/profiles"
)

// fetcher adapts a client host to the portal test runner.
func fetcher(c *hoststack.Host) portal.Fetcher {
	return func(url string) (*httpsim.Response, error) {
		r, err := httpsim.Browse(c, url)
		if err != nil {
			return nil, err
		}
		return r.Response, nil
	}
}

func TestBringupRFC8925Client(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("macbook", profiles.MacOS())

	if c.IPv4Addr().IsValid() {
		t.Errorf("RFC 8925 client kept IPv4 %v", c.IPv4Addr())
	}
	if !c.IPv6OnlyActive() || !c.CLATActive() {
		t.Errorf("v6only=%v clat=%v", c.IPv6OnlyActive(), c.CLATActive())
	}
	// SLAAC: GUA from gateway RA + ULA from switch RA.
	var hasGUA, hasULA bool
	for _, a := range c.IPv6GlobalAddrs() {
		if GUAPrefixA.Contains(a) {
			hasGUA = true
		}
		if ULAPrefix.Contains(a) {
			hasULA = true
		}
	}
	if !hasGUA || !hasULA {
		t.Errorf("addrs = %v (gua=%v ula=%v)", c.IPv6GlobalAddrs(), hasGUA, hasULA)
	}
	// RDNSS learned from the gateway RA (the dead-on-arrival ULAs, made
	// reachable by the switch RA).
	if rd := c.RDNSS(); len(rd) != 2 || rd[0] != HealthyV6 {
		t.Errorf("rdnss = %v", rd)
	}
}

func TestBringupLegacyClient(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("switch", profiles.NintendoSwitch())
	if !c.IPv4Addr().IsValid() || !LANPrefix.Contains(c.IPv4Addr()) {
		t.Fatalf("v4 = %v", c.IPv4Addr())
	}
	if dns := c.V4DNS(); len(dns) != 1 || dns[0] != PoisonV4 {
		t.Errorf("dns = %v (want poisoned server)", dns)
	}
	if len(c.IPv6GlobalAddrs()) != 0 {
		t.Errorf("IPv4-only device formed v6 addrs: %v", c.IPv6GlobalAddrs())
	}
}

func TestSnoopingBlocksGatewayDHCP(t *testing.T) {
	tb := New(DefaultOptions())
	tb.AddClient("pc", profiles.Windows10())
	if tb.Switch.SnoopedDrops == 0 {
		t.Error("gateway DHCP offers were not snooped")
	}
	// The gateway's own pool (.50-.99) must have produced no binding: the
	// client's address comes from the Pi's pool (.100-.199).
	c := tb.Clients[0]
	if c.IPv4Addr().Compare(netip.MustParseAddr("192.168.12.100")) < 0 {
		t.Errorf("client addr %v is from the gateway pool", c.IPv4Addr())
	}
}

func TestSnoopingOffGatewayDHCPWins(t *testing.T) {
	opt := DefaultOptions()
	opt.SnoopDHCP = false
	tb := New(opt)
	// Both servers answer; whichever offer lands first wins. The gateway
	// is on port 0 (closest), so its pool generally wins; accept either
	// but require an address and record which server won via options.
	c := tb.AddClient("pc", profiles.NintendoSwitch())
	if !c.IPv4Addr().IsValid() {
		t.Fatal("no IPv4 with snooping disabled")
	}
}

// TestFloodSuppressionOnAssembledTopology checks the layer-2 snooping
// end to end: on the real Fig. 4 world, DHCPv4 broadcast chatter from a
// legacy client is never delivered to an IPv6-only client's port, the
// suppression counters account for it, and — crucially — suppression
// changes neither client's bring-up outcome.
func TestFloodSuppressionOnAssembledTopology(t *testing.T) {
	tb := New(DefaultOptions())
	v6 := tb.AddClient("linux", profiles.IPv6OnlyLinux())
	legacy := tb.AddClient("console", profiles.NintendoSwitch())

	if !legacy.IPv4Addr().IsValid() {
		t.Fatal("legacy client failed DHCPv4 with snooping suppression active")
	}
	if len(v6.IPv6GlobalAddrs()) == 0 {
		t.Fatal("IPv6-only client failed SLAAC with snooping suppression active")
	}

	st := tb.SwitchStats()
	if st.SuppressedEtherType == 0 {
		t.Error("no EtherType suppression on a mixed v4/v6-only floor; IPv4 broadcasts reached the IPv6-only port")
	}
	if st.SuppressedGroup == 0 {
		t.Error("no group suppression; solicited-node NS flooded beyond group members")
	}
	if st.FanoutFloods == 0 {
		t.Error("no floods rode the shared-payload fan-out path")
	}
}

// --- fig3: gateway RA with dead ULA RDNSS --------------------------------

func TestFig3DeadRDNSSWithoutSwitchRA(t *testing.T) {
	opt := DefaultOptions()
	opt.SwitchULARA = false
	tb := New(opt)
	c := tb.AddClient("linux", profiles.IPv6OnlyLinux())

	// The RDNSS addresses are ULAs with no covering on-link prefix: DNS
	// queries must fail.
	if _, err := c.Lookup("sc24.supercomputing.org"); err == nil {
		t.Fatal("lookup succeeded despite dead RDNSS")
	}
}

func TestFig3SwitchRAMakesRDNSSReachable(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("linux", profiles.IPv6OnlyLinux())

	res, err := c.Lookup("sc24.supercomputing.org")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if res.Resolver != HealthyV6 {
		t.Errorf("resolver = %v, want %v", res.Resolver, HealthyV6)
	}
	// IPv4-only site: the answer must be the NAT64-synthesized AAAA.
	best, _ := res.BestAddr()
	if best != netip.MustParseAddr("64:ff9b::be5c:9e04") {
		t.Errorf("best addr = %v, want 64:ff9b::be5c:9e04", best)
	}
}

// --- fig4: full topology ---------------------------------------------------

func TestFig4AllDeviceClassesGetExpectedConnectivity(t *testing.T) {
	tb := New(DefaultOptions())

	mac := tb.AddClient("macos", profiles.MacOS())
	win10 := tb.AddClient("win10", profiles.Windows10())
	xp := tb.AddClient("xp", profiles.WindowsXP())
	console := tb.AddClient("console", profiles.NintendoSwitch())

	// RFC 8925 client reaches an IPv4-only site via NAT64.
	r, err := httpsim.Browse(mac, "http://sc24.supercomputing.org/")
	if err != nil {
		t.Fatalf("macos browse: %v", err)
	}
	if !strings.Contains(string(r.Response.Body), "SC24") {
		t.Errorf("macos got %q", r.Response.Body)
	}
	if !r.UsedAddr.Is6() {
		t.Errorf("macos used %v, want NAT64 AAAA", r.UsedAddr)
	}

	// Dual-stack Windows 10 likewise (AAAA preferred).
	r, err = httpsim.Browse(win10, "http://sc24.supercomputing.org/")
	if err != nil {
		t.Fatalf("win10 browse: %v", err)
	}
	if !r.UsedAddr.Is6() {
		t.Errorf("win10 used %v, want AAAA first", r.UsedAddr)
	}

	// Windows XP via the poisoned resolver still works over NAT64 (fig7).
	r, err = httpsim.Browse(xp, "http://sc24.supercomputing.org/")
	if err != nil {
		t.Fatalf("xp browse: %v", err)
	}
	if !strings.Contains(string(r.Response.Body), "SC24") || !r.UsedAddr.Is6() {
		t.Errorf("xp: addr=%v body=%q", r.UsedAddr, r.Response.Body)
	}

	// The IPv4-only console lands on the intervention page instead (fig6).
	r, err = httpsim.Browse(console, "http://sc24.supercomputing.org/")
	if err != nil {
		t.Fatalf("console browse: %v", err)
	}
	if !strings.Contains(string(r.Response.Body), portal.IP6MeBody) {
		t.Errorf("console got %q, want the ip6.me intervention", r.Response.Body)
	}
}

// --- fig5: erroneous 10/10 --------------------------------------------------

func TestFig5ErroneousTenOfTenWithMirrorRedirect(t *testing.T) {
	opt := DefaultOptions()
	opt.RedirectV4 = MirrorV4 // the initial deployment pointed at test-ipv6.com itself
	tb := New(opt)
	c := tb.AddClient("win10-nov6", profiles.Windows10NoV6())

	res := portal.Run(fetcher(c), tb.Mirror)
	buggy := portal.ScoreBuggy(res)
	if buggy.Points != 10 {
		t.Errorf("buggy score = %v, want the erroneous 10/10", buggy)
	}
	fixed := portal.ScoreFixed(res)
	if fixed.Points >= 6 {
		t.Errorf("fixed score = %v, want a low score for an IPv4-only client", fixed)
	}
}

func TestFig5RedirectTargetSwitchedToIP6Me(t *testing.T) {
	tb := New(DefaultOptions()) // final deployment: redirect = ip6.me
	c := tb.AddClient("win10-nov6", profiles.Windows10NoV6())

	res := portal.Run(fetcher(c), tb.Mirror)
	buggy := portal.ScoreBuggy(res)
	// Only the literal v4 probe reaches the mirror; every DNS-based probe
	// lands on ip6.me instead, so the misleading 10/10 is gone.
	if buggy.Points != 2 {
		t.Errorf("buggy score = %v, want 2/10 (subs=%+v)", buggy, res.Subs)
	}
	// And plain browsing shows the clear message.
	r, err := httpsim.Browse(c, "http://ds.test-ipv6.com/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(r.Response.Body), "lack of IPv6 support") {
		t.Errorf("body = %q", r.Response.Body)
	}
}

// --- fig6: Nintendo Switch -----------------------------------------------

func TestFig6SwitchInterventionAndDNSOverrideEscape(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("console", profiles.NintendoSwitch())

	// Any browse lands on ip6.me.
	r, err := httpsim.Browse(c, "http://sc24.supercomputing.org/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(r.Response.Body), "lack of IPv6 support") {
		t.Fatalf("no intervention: %q", r.Response.Body)
	}

	// Escape hatch: point DNS at a known-good server and IPv4 internet works.
	c.DNSOverride = []netip.Addr{HealthyV4}
	r, err = httpsim.Browse(c, "http://sc24.supercomputing.org/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(r.Response.Body), "SC24") {
		t.Errorf("override did not restore IPv4 internet: %q", r.Response.Body)
	}
	if !r.UsedAddr.Is4() {
		t.Errorf("console used %v", r.UsedAddr)
	}
}

// --- fig7: Windows XP ------------------------------------------------------

func TestFig7WindowsXPPingAndBrowseViaNAT64(t *testing.T) {
	tb := New(DefaultOptions())
	xp := tb.AddClient("xp", profiles.WindowsXP())

	// XP's only resolver is the poisoned IPv4 server.
	if rs := xp.Resolvers(); len(rs) != 1 || rs[0] != PoisonV4 {
		t.Fatalf("xp resolvers = %v", rs)
	}

	// ping sc24.supercomputing.org -> AAAA 64:ff9b::be5c:9e04, reply OK.
	res, err := xp.Lookup("sc24.supercomputing.org")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.BestAddr()
	if best != netip.MustParseAddr("64:ff9b::be5c:9e04") {
		t.Fatalf("best = %v", best)
	}
	pr, err := xp.Ping(best, time.Second)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if pr.From != best {
		t.Errorf("pong from %v", pr.From)
	}

	// Browsing ip6.me reports an IPv6 address (XP reaches it over v6).
	r, err := httpsim.Browse(xp, "http://ip6.me/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(r.Response.Body), "family=IPv6") {
		t.Errorf("xp on ip6.me: %q", r.Response.Body)
	}
}

// --- fig9: non-existent FQDN pathology --------------------------------------

func TestFig9NSLookupGetsPoisonedSuffixedAnswer(t *testing.T) {
	tb := New(DefaultOptions())
	// A Windows 11-like client that uses the IPv4 resolver.
	c := tb.AddClient("win11", profiles.Windows11())

	ns, err := c.NSLookup("vpn.anl.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	// nslookup tried the suffixed name first; the wildcard poisoner
	// fabricated an answer for it.
	if ns.Name != "vpn.anl.gov.rfc8925.com." {
		t.Errorf("nslookup answered name %q", ns.Name)
	}
	if len(ns.Addrs) != 1 || ns.Addrs[0] != IP6MeV4 {
		t.Errorf("nslookup addrs = %v, want the poison address", ns.Addrs)
	}

	// But getaddrinfo (ping path) still gets the valid AAAA for the plain
	// name through DNS64.
	res, err := c.Lookup("vpn.anl.gov")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.BestAddr()
	if best != netip.MustParseAddr("64:ff9b::82ca:e4fd") {
		t.Errorf("ping resolves to %v", best)
	}
	if res.SuffixApplied {
		t.Error("getaddrinfo should not have needed the suffix")
	}
}

func TestFig9RPZFixesNonexistentFQDN(t *testing.T) {
	opt := DefaultOptions()
	opt.Poison = PoisonRPZ
	tb := New(opt)
	c := tb.AddClient("win11", profiles.Windows11())

	ns, err := c.NSLookup("vpn.anl.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	// RPZ answers NXDOMAIN for the bogus suffixed name, so nslookup falls
	// through to the plain name — which is poisoned (it exists).
	if ns.Name != "vpn.anl.gov." {
		t.Errorf("nslookup answered name %q", ns.Name)
	}
	if len(ns.Addrs) != 1 || ns.Addrs[0] != IP6MeV4 {
		t.Errorf("addrs = %v", ns.Addrs)
	}
	if tb.RPZ.PassedNXDomain == 0 {
		t.Error("RPZ never passed an NXDOMAIN through")
	}
}

// --- fig10: resolver preference ---------------------------------------------

func TestFig10Windows10NeverConsultsPoisonedServer(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("win10", profiles.Windows10())

	before := len(tb.PoisonLog.Queries)
	if _, err := c.Lookup("sc24.supercomputing.org"); err != nil {
		t.Fatal(err)
	}
	if _, err := httpsim.Browse(c, "http://ip6.me/"); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.PoisonLog.Queries) - before; got != 0 {
		t.Errorf("poisoned server saw %d queries from an RDNSS-preferring client", got)
	}
	if len(tb.HealthyLog.Queries) == 0 {
		t.Error("healthy server saw no queries")
	}
}

func TestFig10Windows11PrefersIPv4DNS(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("win11", profiles.Windows11())

	before := len(tb.PoisonLog.Queries)
	if _, err := c.Lookup("sc24.supercomputing.org"); err != nil {
		t.Fatal(err)
	}
	if len(tb.PoisonLog.Queries) == before {
		t.Error("Windows 11 profile did not use the DHCPv4 resolver")
	}
	// Despite the poisoned A, browsing still works because the AAAA wins.
	r, err := httpsim.Browse(c, "http://sc24.supercomputing.org/")
	if err != nil {
		t.Fatal(err)
	}
	if !r.UsedAddr.Is6() || !strings.Contains(string(r.Response.Body), "SC24") {
		t.Errorf("win11: %v %q", r.UsedAddr, r.Response.Body)
	}
}

// --- scoring across device classes (ablB) -----------------------------------

func TestMirrorScoresByDeviceClass(t *testing.T) {
	tb := New(DefaultOptions())

	mac := tb.AddClient("macos", profiles.MacOS())
	res := portal.Run(fetcher(mac), tb.Mirror)
	if s := portal.ScoreFixed(res); s.Points != 10 {
		t.Errorf("RFC8925 client fixed score = %v, want 10/10 (subs=%+v)", s, res.Subs)
	}

	win10 := tb.AddClient("win10", profiles.Windows10())
	res = portal.Run(fetcher(win10), tb.Mirror)
	if s := portal.ScoreFixed(res); s.Points != 9 {
		t.Errorf("dual-stack fixed score = %v, want 9/10 cap (subs=%+v)", s, res.Subs)
	}
	if s := portal.ScoreBuggy(res); s.Points != 10 {
		t.Errorf("dual-stack buggy score = %v, want 10/10", s)
	}
}

// --- 5G gateway reboot: rotating GUA prefix ---------------------------------

func TestGatewayRebootRotatesPrefix(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("linux", profiles.Linux())

	firstPrefix := tb.Gateway.CurrentGUAPrefix()
	tb.Gateway.Reboot()
	tb.Net.RunFor(time.Second)
	if tb.Gateway.CurrentGUAPrefix() == firstPrefix {
		t.Fatal("prefix did not rotate")
	}
	// The client forms an address in the new prefix too.
	var inNew bool
	for _, a := range c.IPv6GlobalAddrs() {
		if tb.Gateway.CurrentGUAPrefix().Contains(a) {
			inNew = true
		}
	}
	if !inNew {
		t.Errorf("client addrs %v missing new prefix %v", c.IPv6GlobalAddrs(), tb.Gateway.CurrentGUAPrefix())
	}
}

// --- echolink (fig2 substrate) ----------------------------------------------

func TestEcholinkIPv4LiteralOnDualStack(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("win10", profiles.Windows10())

	resp, err := c.Query(EcholinkV4, EcholinkPort, []byte("cq de w9anl"), time.Second)
	if err != nil {
		t.Fatalf("echolink: %v", err)
	}
	if string(resp) != "echolink:cq de w9anl" {
		t.Errorf("resp = %q", resp)
	}
}

func TestEcholinkViaCLATOnRFC8925Client(t *testing.T) {
	tb := New(DefaultOptions())
	c := tb.AddClient("android", profiles.Android())

	resp, err := c.Query(EcholinkV4, EcholinkPort, []byte("cq"), time.Second)
	if err != nil {
		t.Fatalf("echolink via CLAT: %v", err)
	}
	if string(resp) != "echolink:cq" {
		t.Errorf("resp = %q", resp)
	}
}
