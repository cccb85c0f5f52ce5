// Package testbed assembles the paper's Fig. 4 topology: the 5G mobile
// internet gateway, the managed switch with its two interventions, the
// Raspberry Pi servers (healthy DNS64, poisoned IPv4 DNS, DHCPv4 with
// option 108) and the public internet endpoints (ip6.me, the
// test-ipv6.com mirror, IPv4-only sites, the Echolink-style UDP
// service). Every knob the paper varies is an Option so experiments can
// flip interventions on and off.
//
// Worlds come in two constructions. New(opt) is the classic panicking
// constructor for one-off experiments. Topology is the declarative
// form: a plain-data spec (addressing, gateway, Pis, sites, clients,
// link Impairment, reboot ChurnSpec) that Build assembles into a
// running world, as many independent copies as it is called — the
// hand-off point to the scenario engine. ScaleTopology
// widens pools and stretches lease/session lifetimes so device outcomes
// are position-independent, the precondition for shard-equality.
// Chaos knobs thread through the same spec: Impair degrades every
// client NIC with streams seeded from ChaosSeed and the client's name
// (never its attach order), and Churn schedules whole-world gateway
// reboots on the virtual clock.
package testbed

import (
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dns64"
	"repro/internal/dnspoison"
	"repro/internal/dnswire"
	"repro/internal/gateway5g"
	"repro/internal/hoststack"
	"repro/internal/inet"
	"repro/internal/mgmtswitch"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/vpn"
)

// Well-known testbed addresses (paper §IV-V).
var (
	LANPrefix    = netip.MustParsePrefix("192.168.12.0/24")
	GatewayLANv4 = netip.MustParseAddr("192.168.12.1")
	// GatewayWANv4 is the NAT64 egress; GatewayNAT44v4 the legacy NAT44
	// egress (distinct, so the mirror can recognize translated clients).
	GatewayWANv4   = netip.MustParseAddr("203.0.113.1")
	GatewayNAT44v4 = netip.MustParseAddr("203.0.113.2")

	ULAPrefix  = netip.MustParsePrefix("fd00:976a::/64")
	HealthyV6  = netip.MustParseAddr("fd00:976a::9")
	HealthyV6B = netip.MustParseAddr("fd00:976a::10")
	HealthyV4  = netip.MustParseAddr("192.168.12.251")
	PoisonV4   = netip.MustParseAddr("192.168.12.253")
	DHCPPiV4   = netip.MustParseAddr("192.168.12.250")

	GUAPrefixA = netip.MustParsePrefix("2607:fb90:9bda:a425::/64")
	GUAPrefixB = netip.MustParsePrefix("2607:fb90:c1d2:e3f4::/64")

	IP6MeV4 = netip.MustParseAddr("23.153.8.71")
	IP6MeV6 = netip.MustParseAddr("2001:4810:0:3::71")

	MirrorV4     = netip.MustParseAddr("216.218.228.119")
	MirrorV6     = netip.MustParseAddr("2001:470:1:18::119")
	MirrorV4Only = netip.MustParseAddr("216.218.228.120")
	MirrorV6Only = netip.MustParseAddr("2001:470:1:18::120")

	SC24V4     = netip.MustParseAddr("190.92.158.4")
	VPNGwV4    = netip.MustParseAddr("130.202.228.253")
	VTCV4      = netip.MustParseAddr("198.51.100.40")
	EcholinkV4 = netip.MustParseAddr("208.67.222.222")

	// StreamCDNV4 is the IPv4-only streaming CDN every world carries:
	// IPv6-only clients reach it through DNS64+NAT64 (or CLAT), legacy
	// clients through NAT44 — the sustained-flow workload behind the
	// heavy-traffic benchmark.
	StreamCDNV4 = netip.MustParseAddr("151.101.1.6")
)

// StreamCDNName is the DNS name of the built-in streaming CDN site. Its
// handler derives the flow geometry from the request path — see
// Build for the /flow/<bytes>/<chunk>/<pace-ms> convention.
const StreamCDNName = "cdn.example.com"

// EcholinkPort is the UDP port of the IPv4-literal service (Fig. 2).
const EcholinkPort uint16 = 5198

// PoisonPolicy selects the IPv4 DNS intervention flavour.
type PoisonPolicy int

// Poisoning policies.
const (
	PoisonOff PoisonPolicy = iota
	PoisonWildcard
	PoisonRPZ
)

// Options are the experiment knobs.
type Options struct {
	// Poison selects the IPv4 DNS intervention (default wildcard).
	Poison PoisonPolicy
	// RedirectV4 is the poisoned A answer (default ip6.me per the final
	// deployment; Fig. 5 used the mirror's own address first).
	RedirectV4 netip.Addr
	// Option108 enables RFC 8925 on the Raspberry Pi DHCP server.
	Option108 bool
	// SnoopDHCP blocks the gateway's built-in DHCPv4 server.
	SnoopDHCP bool
	// SwitchULARA enables the managed switch's low-priority ULA RA.
	SwitchULARA bool
	// RestrictIPv4 drops all NAT44 internet traffic (the ACL the paper's
	// §VI warns about — Fig. 8's split-tunnel breakage).
	RestrictIPv4 bool
}

// DefaultOptions returns the SC24v6 deployment configuration.
func DefaultOptions() Options {
	return Options{
		Poison:      PoisonWildcard,
		RedirectV4:  IP6MeV4,
		Option108:   true,
		SnoopDHCP:   true,
		SwitchULARA: true,
	}
}

// Testbed is the assembled Fig. 4 topology.
type Testbed struct {
	Opt Options
	// Spec is the topology the world was built from; Build(Spec) makes
	// an identical fresh world.
	Spec Topology
	Net  *netsim.Network

	Internet *inet.Internet
	Gateway  *gateway5g.Gateway
	Switch   *mgmtswitch.Switch

	HealthyPi  *hoststack.Host
	PoisonPi   *hoststack.Host
	DHCPPi     *hoststack.Host
	DHCPServer *dhcp4.Server

	Healthy64 *dns64.Resolver
	// HealthyCache is the bounded LRU cache in front of the healthy
	// DNS64 resolver; the scale benchmarks assert its memory bound.
	HealthyCache *dns.Cache
	// Wildcard / RPZ is non-nil per Options.Poison.
	Wildcard *dnspoison.Wildcard
	RPZ      *dnspoison.RPZ

	Mirror portal.MirrorConfig

	// HealthyLog records every query reaching the healthy DNS64;
	// PoisonLog records queries hitting the poisoned server. The Fig. 10
	// experiment proves resolver selection with these.
	HealthyLog *dns.QueryLog
	PoisonLog  *dns.QueryLog

	poisonSwitch *switchableResolver

	// cp is the saved post-Build state backing the Checkpoint/Reset
	// world-reuse lifecycle (reset.go); nil until Checkpoint is taken.
	cp *checkpoint

	Clients []*hoststack.Host

	// Fabric is the runtime access tier — non-nil only when the spec's
	// FabricSpec is populated (see fabric.go).
	Fabric *Fabric

	// AlignPeriod, when non-zero, asks the scenario engine to align
	// every device trial to this virtual-time period (a multiple of the
	// 10 s RA beacon grid). Stateful pathology installs set it so each
	// trial observes the same schedule phase regardless of its position
	// in the run — the serial ≡ sharded precondition for scheduled
	// failures.
	AlignPeriod time.Duration

	// SampleNAT64PerTrial, when set, makes the scenario engine
	// accumulate the gateway NAT64's live-session count at the end of
	// each device trial instead of reading one total at the end of the
	// run. Installs that shorten NAT64 session timeouts below the
	// inter-trial bring-up gap set it: with sessions expiring between
	// trials the end-of-run total would be position-dependent, while
	// the per-trial sum is a pure per-device quantity that merges
	// exactly across shards.
	SampleNAT64PerTrial bool
}

// New assembles and starts the default world for opt. It is a thin
// compatibility wrapper over Build(DefaultTopology(opt)) that keeps the
// historical panic-on-error contract; new code should prefer Build,
// which reports construction failures as errors and supports Close.
func New(opt Options) *Testbed {
	tb, err := Build(DefaultTopology(opt))
	if err != nil {
		panic("testbed: " + err.Error())
	}
	return tb
}

// switchableResolver lets the intervention be rolled back at runtime.
// The active resolver is swapped atomically: RollBackIntervention may
// be called while other worlds — or a concurrent driver — are mid-
// Resolve, and a torn read must never be observed.
type switchableResolver struct {
	active atomic.Value // holds resolverBox
}

// resolverBox gives atomic.Value a single consistent concrete type even
// though the boxed resolvers (Wildcard, RPZ, DNS64) vary.
type resolverBox struct {
	r dns.Resolver
}

func newSwitchableResolver(r dns.Resolver) *switchableResolver {
	s := &switchableResolver{}
	s.swap(r)
	return s
}

func (s *switchableResolver) swap(r dns.Resolver) {
	s.active.Store(resolverBox{r: r})
}

func (s *switchableResolver) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	return s.active.Load().(resolverBox).r.Resolve(q)
}

// RollBackIntervention implements the paper §VII contingency ("an
// Ansible playbook to remove the IPv4 DNS interventions should major
// issues be reported"): the poisoned server instantly becomes a plain
// forwarder to the healthy DNS64, without any client reconfiguration.
func (tb *Testbed) RollBackIntervention() {
	tb.poisonSwitch.swap(tb.Healthy64)
}

// ReinstateIntervention restores the configured poisoning policy.
func (tb *Testbed) ReinstateIntervention() {
	switch {
	case tb.Wildcard != nil:
		tb.poisonSwitch.swap(tb.Wildcard)
	case tb.RPZ != nil:
		tb.poisonSwitch.swap(tb.RPZ)
	default:
		tb.poisonSwitch.swap(tb.Healthy64)
	}
}

// AddClient attaches a client with the given OS behaviour and brings it
// up (DHCP + RA processing).
func (tb *Testbed) AddClient(name string, b hoststack.Behavior) *hoststack.Host {
	c := hoststack.New(tb.Net, name, b)
	tb.Switch.AttachPort(c.NIC)
	if tb.Spec.Impair.Enabled() {
		c.NIC.SetImpairment(tb.Spec.Impair, chaosSeed(tb.Spec.ChaosSeed, name))
	}
	c.Start()
	tb.Net.RunFor(2 * time.Second)
	tb.Clients = append(tb.Clients, c)
	return c
}

// RestrictIPv4Internet applies the §VI ACL: the gateway stops forwarding
// NAT44 traffic (IPv4 LAN services keep working).
func (tb *Testbed) RestrictIPv4Internet() {
	tb.Gateway.BlockNAT44()
}

// SwitchStats exposes the managed switch's forwarding and
// flood-suppression counters — how much broadcast-domain traffic the
// snooped interest filters kept away from ports that would only have
// discarded it (e.g. DHCPv4 DISCOVER broadcasts never delivered to
// IPv6-only clients).
func (tb *Testbed) SwitchStats() netsim.SwitchStats {
	return tb.Switch.Stats()
}

// VPNEgressV4 is the enterprise's public IPv4 address tunneled traffic
// egresses from.
var VPNEgressV4 = netip.MustParseAddr("130.202.1.1")

// InstallVPN stands up the vpn.anl.gov concentrator. The SC23-style
// mirror is venue-local: tunneled traffic cannot reach back into the
// conference network (the paper's Fig. 11 situation).
func (tb *Testbed) InstallVPN() *vpn.Concentrator {
	k := &vpn.Concentrator{
		Inet:      tb.Internet,
		GatewayV4: VPNGwV4,
		EgressV4:  VPNEgressV4,
		VenueLocal: map[netip.Addr]bool{
			MirrorV4:     true,
			MirrorV4Only: true,
		},
	}
	k.Install()
	return k
}

// NewVPNClient configures the enterprise VPN profile on a client: the
// approved VTC platform is split-tunneled by IPv4 literal, everything
// else rides the IPv4-only tunnel.
func (tb *Testbed) NewVPNClient(c *hoststack.Host) *vpn.Client {
	return &vpn.Client{
		Host:        c,
		GatewayV4:   VPNGwV4,
		SplitTunnel: []netip.Prefix{netip.PrefixFrom(VTCV4, 32)},
	}
}
