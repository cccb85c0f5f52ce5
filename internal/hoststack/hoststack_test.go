package hoststack

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dnswire"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

var (
	ulaPrefix = netip.MustParsePrefix("fd00:976a::/64")
	lanPrefix = netip.MustParsePrefix("192.168.12.0/24")
)

// lanWith builds a switch and attaches the given hosts.
func lanWith(net *netsim.Network, hosts ...*Host) *netsim.Switch {
	sw := netsim.NewSwitch(net, "sw")
	for _, h := range hosts {
		sw.AttachPort(h.NIC)
	}
	return sw
}

func serverBehavior() Behavior {
	return Behavior{Name: "server", IPv6Enabled: true, IPv4Enabled: false, SupportsRDNSS: true}
}

func TestStaticV6PingOverSwitch(t *testing.T) {
	net := netsim.NewNetwork()
	a := New(net, "a", serverBehavior())
	b := New(net, "b", serverBehavior())
	lanWith(net, a, b)
	a.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	b.AddIPv6Static(netip.MustParseAddr("fd00:976a::2"), ulaPrefix)

	res, err := a.Ping(netip.MustParseAddr("fd00:976a::2"), time.Second)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if res.From != netip.MustParseAddr("fd00:976a::2") {
		t.Errorf("reply from %v", res.From)
	}
	if res.RTT <= 0 {
		t.Errorf("rtt = %v", res.RTT)
	}
}

func TestStaticV4PingWithARP(t *testing.T) {
	net := netsim.NewNetwork()
	a := New(net, "a", Behavior{Name: "a", IPv4Enabled: true})
	b := New(net, "b", Behavior{Name: "b", IPv4Enabled: true})
	lanWith(net, a, b)
	a.SetIPv4Static(netip.MustParseAddr("192.168.12.1"), lanPrefix, netip.Addr{})
	b.SetIPv4Static(netip.MustParseAddr("192.168.12.2"), lanPrefix, netip.Addr{})

	res, err := a.Ping(netip.MustParseAddr("192.168.12.2"), time.Second)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if res.From != netip.MustParseAddr("192.168.12.2") {
		t.Errorf("reply from %v", res.From)
	}
}

func TestUDPExchange(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "client", serverBehavior())
	server := New(net, "server", serverBehavior())
	lanWith(net, client, server)
	client.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	server.AddIPv6Static(netip.MustParseAddr("fd00:976a::9"), ulaPrefix)

	server.BindUDP(7, func(src netip.Addr, sport uint16, dst netip.Addr, payload []byte) {
		reply := append([]byte("echo:"), payload...)
		u := &packet.UDP{SrcPort: 7, DstPort: sport, Payload: reply}
		p := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: dst, Dst: src, Payload: u.Marshal(dst, src)}
		_ = server.SendIPv6(p)
	})

	resp, err := client.Query(netip.MustParseAddr("fd00:976a::9"), 7, []byte("hello"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hello" {
		t.Errorf("resp = %q", resp)
	}
}

// raRouter is a minimal RA-emitting router used by stack tests.
type raRouter struct {
	host *Host
	ra   *ndp.RouterAdvert
}

func newRARouter(net *netsim.Network, name string, ra *ndp.RouterAdvert) *raRouter {
	r := &raRouter{ra: ra}
	r.host = New(net, name, Behavior{Name: name, IPv6Enabled: true})
	return r
}

// frame builds the router's RA as an all-nodes multicast frame.
func (r *raRouter) frame() netsim.Frame {
	return r.frameTo(ndp.AllNodes, netsim.MAC(packet.MulticastMAC(ndp.AllNodes)))
}

// frameTo builds the router's RA addressed to dst at dstMAC.
func (r *raRouter) frameTo(dst netip.Addr, dstMAC netsim.MAC) netsim.Frame {
	r.ra.SourceLinkAddr = r.host.NIC.MAC()
	r.ra.HasSourceLink = true
	src := r.host.LinkLocal()
	body := (&packet.ICMP{Type: packet.ICMPv6RouterAdvert, Body: r.ra.Marshal()}).MarshalV6(src, dst)
	p := &packet.IPv6{NextHeader: packet.ProtoICMPv6, HopLimit: 255, Src: src, Dst: dst, Payload: body}
	return netsim.Frame{Dst: dstMAC, Src: r.host.NIC.MAC(), EtherType: netsim.EtherTypeIPv6, Payload: p.Marshal()}
}

// advertise multicasts one RA to all-nodes.
func (r *raRouter) advertise() { r.host.NIC.Transmit(r.frame()) }

func TestSLAACAndRDNSSFromRA(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "client", Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	router := newRARouter(net, "gw", &ndp.RouterAdvert{
		RouterLifetime: 30 * time.Minute,
		Prefixes: []ndp.PrefixInfo{{
			Prefix: netip.MustParsePrefix("2607:fb90:9bda:a425::/64"),
			OnLink: true, Autonomous: true,
			ValidLifetime: 2 * time.Hour, PreferredLifetime: time.Hour,
		}},
		RDNSS:         []netip.Addr{netip.MustParseAddr("fd00:976a::9")},
		RDNSSLifetime: 30 * time.Minute,
	})
	lanWith(net, client, router.host)

	router.advertise()
	net.RunFor(2 * time.Second)

	addrs := client.IPv6GlobalAddrs()
	if len(addrs) != 1 {
		t.Fatalf("SLAAC addrs = %v", addrs)
	}
	want, _ := ndp.EUI64(netip.MustParsePrefix("2607:fb90:9bda:a425::/64"), client.NIC.MAC())
	if addrs[0] != want {
		t.Errorf("SLAAC addr = %v, want %v", addrs[0], want)
	}
	if rd := client.RDNSS(); len(rd) != 1 || rd[0] != netip.MustParseAddr("fd00:976a::9") {
		t.Errorf("RDNSS = %v", rd)
	}
}

func TestRDNSSIgnoredWithoutSupport(t *testing.T) {
	net := netsim.NewNetwork()
	// Windows XP: IPv6 on, but no RDNSS support.
	client := New(net, "xp", Behavior{Name: "xp", IPv6Enabled: true, SupportsRDNSS: false})
	router := newRARouter(net, "gw", &ndp.RouterAdvert{
		RouterLifetime: time.Hour,
		RDNSS:          []netip.Addr{netip.MustParseAddr("fd00:976a::9")},
		RDNSSLifetime:  time.Hour,
	})
	lanWith(net, client, router.host)
	router.advertise()
	net.RunFor(2 * time.Second)
	if len(client.RDNSS()) != 0 {
		t.Errorf("XP learned RDNSS: %v", client.RDNSS())
	}
}

func TestRouterPreferenceSelection(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "c", Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	low := newRARouter(net, "low", &ndp.RouterAdvert{RouterLifetime: time.Hour, Preference: ndp.PrefLow})
	med := newRARouter(net, "med", &ndp.RouterAdvert{RouterLifetime: time.Hour, Preference: ndp.PrefMedium})
	lanWith(net, client, low.host, med.host)
	low.advertise()
	med.advertise()
	net.RunFor(2 * time.Second)

	r, ok := client.bestRouter()
	if !ok {
		t.Fatal("no router learned")
	}
	if r.addr != med.host.LinkLocal() {
		t.Errorf("best router = %v, want the medium-preference one", r.addr)
	}
}

// dhcpServerHost runs a dhcp4.Server inside a Host bound to UDP 67.
func dhcpServerHost(net *netsim.Network, t *testing.T, cfg dhcp4.ServerConfig) (*Host, *dhcp4.Server) {
	t.Helper()
	h := New(net, "dhcpd", Behavior{Name: "dhcpd", IPv4Enabled: true})
	h.SetIPv4Static(cfg.ServerID, lanPrefix, netip.Addr{})
	srv, err := dhcp4.NewServer(cfg, net.Clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	AttachDHCPServer(h, srv)
	return h, srv
}

func TestDHCPClientFullDORA(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "pc", Behavior{Name: "pc", IPv4Enabled: true, UseSuffixSearch: true})
	serverHost, _ := dhcpServerHost(net, t, dhcp4.ServerConfig{
		ServerID:   netip.MustParseAddr("192.168.12.250"),
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.199"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
		Router:     netip.MustParseAddr("192.168.12.1"),
		DNS:        []netip.Addr{netip.MustParseAddr("192.168.12.253")},
		DomainName: "rfc8925.com",
	})
	lanWith(net, client, serverHost)

	client.Start()
	net.RunFor(2 * time.Second)

	if !client.IPv4Addr().IsValid() || !lanPrefix.Contains(client.IPv4Addr()) {
		t.Fatalf("client v4 = %v", client.IPv4Addr())
	}
	if dnsList := client.V4DNS(); len(dnsList) != 1 || dnsList[0] != netip.MustParseAddr("192.168.12.253") {
		t.Errorf("dns = %v", dnsList)
	}
	if client.DomainSuffix() != "rfc8925.com" {
		t.Errorf("suffix = %q", client.DomainSuffix())
	}
}

func TestDHCPOption108DisablesIPv4AndStartsCLAT(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "phone", Behavior{
		Name: "phone", IPv4Enabled: true, IPv6Enabled: true,
		SupportsRFC8925: true, HasCLAT: true, SupportsRDNSS: true,
	})
	serverHost, srv := dhcpServerHost(net, t, dhcp4.ServerConfig{
		ServerID:   netip.MustParseAddr("192.168.12.250"),
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.199"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
		V6OnlyWait: 30 * time.Minute,
	})
	lanWith(net, client, serverHost)

	client.Start()
	net.RunFor(2 * time.Second)

	if client.IPv4Addr().IsValid() {
		t.Errorf("RFC 8925 client kept IPv4 address %v", client.IPv4Addr())
	}
	if !client.IPv6OnlyActive() {
		t.Error("IPv6-only mode not active")
	}
	if !client.CLATActive() {
		t.Error("CLAT not started")
	}
	if srv.LeaseCount() != 0 {
		t.Errorf("server committed %d leases", srv.LeaseCount())
	}
}

func TestLegacyClientStillGetsV4FromOption108Scope(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "switch", Behavior{Name: "switch", IPv4Enabled: true})
	serverHost, _ := dhcpServerHost(net, t, dhcp4.ServerConfig{
		ServerID:   netip.MustParseAddr("192.168.12.250"),
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.199"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
		V6OnlyWait: 30 * time.Minute,
	})
	lanWith(net, client, serverHost)
	client.Start()
	net.RunFor(2 * time.Second)
	if !client.IPv4Addr().IsValid() {
		t.Error("legacy client failed to get IPv4")
	}
}

// dnsServerHost runs a dns.Resolver inside a Host on UDP 53.
func dnsServerHost(net *netsim.Network, name string, r dns.Resolver) *Host {
	h := New(net, name, serverBehavior())
	AttachDNSServer(h, r)
	return h
}

func TestLookupViaWireDNS(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "c", serverBehavior())
	zone := dns.NewZone("example")
	zone.MustAdd(dnswire.RR{Name: "dual", Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::7")})
	zone.MustAdd(dnswire.RR{Name: "dual", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.100.7")})
	server := dnsServerHost(net, "dns", zone)
	lanWith(net, client, server)
	client.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	server.AddIPv6Static(netip.MustParseAddr("fd00:976a::9"), ulaPrefix)
	client.DNSOverride = []netip.Addr{netip.MustParseAddr("fd00:976a::9")}

	res, err := client.Lookup("dual.example")
	if err != nil {
		t.Fatal(err)
	}
	// IPv6-only client: only the AAAA is usable and must come first.
	if len(res.Addrs) == 0 || res.Addrs[0] != netip.MustParseAddr("2001:db8::7") {
		t.Errorf("addrs = %v", res.Addrs)
	}
	if res.Resolver != netip.MustParseAddr("fd00:976a::9") {
		t.Errorf("resolver = %v", res.Resolver)
	}
}

func TestTCPConnectSendReceive(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "c", serverBehavior())
	server := New(net, "s", serverBehavior())
	lanWith(net, client, server)
	client.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	server.AddIPv6Static(netip.MustParseAddr("fd00:976a::80"), ulaPrefix)

	server.ListenTCP(80, func(c *TCPConn) {
		c.OnData = func(c *TCPConn) {
			data := c.Recv()
			if len(data) > 0 {
				_ = c.Send(append([]byte("you said: "), data...))
				_ = c.Close()
			}
		}
	})

	conn, err := client.DialTCP(netip.MustParseAddr("fd00:976a::80"), 80, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !conn.Established() {
		t.Fatal("not established")
	}
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	ok := net.RunUntil(func() bool { return conn.RemoteClosed() }, time.Second)
	if !ok {
		t.Fatal("server never closed")
	}
	if got := string(conn.Recv()); got != "you said: ping" {
		t.Errorf("got %q", got)
	}
}

func TestTCPConnectionRefused(t *testing.T) {
	net := netsim.NewNetwork()
	client := New(net, "c", serverBehavior())
	server := New(net, "s", serverBehavior())
	lanWith(net, client, server)
	client.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	server.AddIPv6Static(netip.MustParseAddr("fd00:976a::80"), ulaPrefix)

	if _, err := client.DialTCP(netip.MustParseAddr("fd00:976a::80"), 81, time.Second); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestLookupUnreachableResolverFallsBack(t *testing.T) {
	// The Fig. 3 situation: the first RDNSS address is dead; a host with a
	// second (working) resolver should still resolve.
	net := netsim.NewNetwork()
	client := New(net, "c", serverBehavior())
	zone := dns.NewZone("example")
	zone.MustAdd(dnswire.RR{Name: "x", Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")})
	server := dnsServerHost(net, "dns", zone)
	lanWith(net, client, server)
	client.AddIPv6Static(netip.MustParseAddr("fd00:976a::1"), ulaPrefix)
	server.AddIPv6Static(netip.MustParseAddr("fd00:976a::9"), ulaPrefix)
	// First resolver is a dead ULA (nobody owns it); second works.
	client.DNSOverride = []netip.Addr{
		netip.MustParseAddr("fd00:976a::dead"),
		netip.MustParseAddr("fd00:976a::9"),
	}
	res, err := client.Lookup("x.example")
	if err != nil {
		t.Fatalf("lookup failed entirely: %v", err)
	}
	if res.Resolver != netip.MustParseAddr("fd00:976a::9") {
		t.Errorf("used resolver %v", res.Resolver)
	}
}
