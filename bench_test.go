package repro_test

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dns64"
	"repro/internal/dnspoison"
	"repro/internal/dnswire"
	"repro/internal/httpsim"
	"repro/internal/nat64"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/portal"
	"repro/internal/profiles"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// Each benchmark regenerates one figure/table of the paper's evaluation
// (see DESIGN.md §4 for the index). The measured quantity is the full
// simulated workload for that experiment, so relative costs compare the
// interventions rather than wall-clock network behaviour.

func fetcher(tb *testbed.Testbed, c int) portal.Fetcher {
	return func(url string) (*httpsim.Response, error) {
		r, err := httpsim.Browse(tb.Clients[c], url)
		if err != nil {
			return nil, err
		}
		return r.Response, nil
	}
}

// sizedBuild is the world factory of benchmarks that shard a fixed
// topology: every world is a fresh testbed.Build of spec, whatever its
// device count.
func sizedBuild(spec testbed.Topology) scenario.SizedWorldFactory {
	return func(int) (*testbed.Testbed, error) { return testbed.Build(spec) }
}

// quiesce advances virtual time between iterations so NAT sessions,
// DNS cache entries and closing TCP bindings expire the way they would
// between real visitors — without it, sustained benchmark load would
// (realistically!) exhaust the translators' port pools.
func quiesce(tb *testbed.Testbed) {
	tb.Net.RunFor(6 * time.Minute)
}

// BenchmarkFig2EcholinkLiteral: the IPv4-literal application exchange on
// a dual-stack client (the SC23 count-polluting workload).
func BenchmarkFig2EcholinkLiteral(b *testing.B) {
	b.ReportAllocs()
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("ham", profiles.Windows10())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(testbed.EcholinkV4, testbed.EcholinkPort, []byte("cq"), time.Second); err != nil {
			b.Fatal(err)
		}
		quiesce(tb)
	}
}

// BenchmarkFig3GatewayRA: client bring-up plus first resolution through
// the switch-RA-rescued RDNSS path.
func BenchmarkFig3GatewayRA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := testbed.New(testbed.DefaultOptions())
		c := tb.AddClient("probe", profiles.IPv6OnlyLinux())
		if _, err := c.Lookup("sc24.supercomputing.org"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4TestbedBringup: assembling the full Fig. 4 topology and
// bringing up one client of each major class.
func BenchmarkFig4TestbedBringup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := testbed.New(testbed.DefaultOptions())
		tb.AddClient("mac", profiles.MacOS())
		tb.AddClient("win", profiles.Windows10())
		tb.AddClient("console", profiles.NintendoSwitch())
	}
}

// BenchmarkFig5ErroneousScore: the full five-subtest mirror run plus both
// scorings for the IPv6-disabled client behind wildcard poisoning.
func BenchmarkFig5ErroneousScore(b *testing.B) {
	b.ReportAllocs()
	opt := testbed.DefaultOptions()
	opt.RedirectV4 = testbed.MirrorV4
	tb := testbed.New(opt)
	tb.AddClient("nov6", profiles.Windows10NoV6())
	f := fetcher(tb, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := portal.Run(f, tb.Mirror)
		if portal.ScoreBuggy(res).Points != 10 {
			b.Fatal("lost the erroneous 10/10")
		}
		quiesce(tb)
	}
}

// BenchmarkFig6SwitchIntervention: an IPv4-only device browsing into the
// intervention page.
func BenchmarkFig6SwitchIntervention(b *testing.B) {
	b.ReportAllocs()
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("console", profiles.NintendoSwitch())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := httpsim.Browse(c, "http://sc24.supercomputing.org/"); err != nil {
			b.Fatal(err)
		}
		quiesce(tb)
	}
}

// BenchmarkFig7WindowsXP: the XP path — AAAA through the poisoned
// resolver's DNS64 forward, then a NAT64 page fetch.
func BenchmarkFig7WindowsXP(b *testing.B) {
	b.ReportAllocs()
	tb := testbed.New(testbed.DefaultOptions())
	xp := tb.AddClient("xp", profiles.WindowsXP())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := httpsim.Browse(xp, "http://sc24.supercomputing.org/"); err != nil {
			b.Fatal(err)
		}
		quiesce(tb)
	}
}

// BenchmarkFig8VPNSplitTunnel: one split-tunneled VTC fetch plus one
// tunneled fetch.
func BenchmarkFig8VPNSplitTunnel(b *testing.B) {
	b.ReportAllocs()
	tb := testbed.New(testbed.DefaultOptions())
	tb.InstallVPN()
	c := tb.AddClient("laptop", profiles.Windows10())
	vc := tb.NewVPNClient(c)
	if err := vc.Connect(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vc.Fetch("http://" + testbed.VTCV4.String() + "/"); err != nil {
			b.Fatal(err)
		}
		if _, err := vc.Fetch("http://ip6.me/"); err != nil {
			b.Fatal(err)
		}
		quiesce(tb)
	}
}

// BenchmarkFig9NonexistentFQDN: the nslookup suffix-first pathology.
func BenchmarkFig9NonexistentFQDN(b *testing.B) {
	b.ReportAllocs()
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("win11", profiles.Windows11())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, err := c.NSLookup("vpn.anl.gov", dnswire.TypeA)
		if err != nil {
			b.Fatal(err)
		}
		if ns.Name != "vpn.anl.gov.rfc8925.com." {
			b.Fatal("pathology vanished")
		}
	}
}

// BenchmarkFig10RDNSSPreference: a resolution on the RDNSS-preferring
// profile (never touching the poisoned server).
func BenchmarkFig10RDNSSPreference(b *testing.B) {
	b.ReportAllocs()
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("win10", profiles.Windows10())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Lookup("sc24.supercomputing.org"); err != nil {
			b.Fatal(err)
		}
		quiesce(tb)
	}
	if len(tb.PoisonLog.Queries) != 0 {
		b.Fatal("poisoned server was consulted")
	}
}

// BenchmarkFig11VPNScore: the full mirror run over the tunnel.
func BenchmarkFig11VPNScore(b *testing.B) {
	b.ReportAllocs()
	tb := testbed.New(testbed.DefaultOptions())
	tb.InstallVPN()
	c := tb.AddClient("laptop", profiles.Windows10())
	vc := tb.NewVPNClient(c)
	if err := vc.Connect(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := portal.Run(vc.Fetch, tb.Mirror)
		if portal.ScoreFixed(res).Points != 0 {
			b.Fatal("VPN score should be 0/10")
		}
		quiesce(tb)
	}
}

// BenchmarkTableAClientMatrix: the full §V compatibility matrix (eleven
// testbeds, one per profile).
func BenchmarkTableAClientMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := core.Matrix(testbed.DefaultOptions())
		if len(rows) != len(profiles.All()) {
			b.Fatal("short matrix")
		}
	}
}

// BenchmarkTableBClientCounting: a 20-device conference floor under the
// SC24 intervention.
func BenchmarkTableBClientCounting(b *testing.B) {
	b.ReportAllocs()
	devices := scenario.Population(1, 20, scenario.DefaultMix())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := scenario.RunWith(testbed.New(testbed.DefaultOptions()), devices, scenario.RunOptions{})
		if rep.Joined != 20 {
			b.Fatal("population lost")
		}
	}
}

// BenchmarkAblationPoisonerComparison: per-query cost of the dnsmasq
// wildcard vs the RPZ existence check over a 10k-name query mix (half
// existing, half NXDOMAIN) — the §VI complexity trade.
func BenchmarkAblationPoisonerComparison(b *testing.B) {
	b.ReportAllocs()
	zone := dns.NewZone("mix.example")
	const existing = 5000
	for i := 0; i < existing; i++ {
		if err := zone.AddA(hostLabel(i), netip.MustParseAddr("198.51.100.1"), 60); err != nil {
			b.Fatal(err)
		}
	}
	upstream := dns64.New(zone)
	queries := make([]dnswire.Question, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Even i: an existing name; odd i: a non-existent one.
		name := hostLabel(i/2) + ".mix.example"
		if i%2 == 1 {
			name = "ghost-" + hostLabel(i) + ".mix.example"
		}
		// Wire-parsed questions are always canonical (readName lower-cases
		// and dot-terminates), so the per-query cost is measured over the
		// same names a real server loop would see.
		queries = append(queries, dnswire.Question{Name: dnswire.CanonicalName(name), Type: dnswire.TypeA, Class: dnswire.ClassIN})
	}
	b.Run("wildcard", func(b *testing.B) {
		b.ReportAllocs()
		w := dnspoison.NewWildcard(upstream)
		for i := 0; i < b.N; i++ {
			if _, err := w.Resolve(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rpz", func(b *testing.B) {
		b.ReportAllocs()
		r := dnspoison.NewRPZ(upstream)
		for i := 0; i < b.N; i++ {
			if _, err := r.Resolve(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func hostLabel(i int) string {
	const digits = "abcdefghij"
	if i == 0 {
		return "h" + string(digits[0])
	}
	s := "h"
	for i > 0 {
		s += string(digits[i%10])
		i /= 10
	}
	return s
}

// BenchmarkDHCPDORA: a full discover/offer/request/ack exchange against
// the option-108 server (message-level).
func BenchmarkDHCPDORA(b *testing.B) {
	b.ReportAllocs()
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	srv, err := dhcp4.NewServer(dhcp4.ServerConfig{
		ServerID:   netip.MustParseAddr("192.168.12.250"),
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.199"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
		LeaseTime:  time.Hour,
	}, func() time.Time { return now })
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		chaddr := [6]byte{2, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		d := dhcp4.NewMessage(dhcp4.OpRequest, uint32(i), chaddr)
		d.SetType(dhcp4.Discover)
		offer := srv.Handle(d)
		if offer == nil {
			b.Fatal("no offer")
		}
		r := dhcp4.NewMessage(dhcp4.OpRequest, uint32(i), chaddr)
		r.SetType(dhcp4.Request)
		r.SetIPv4Option(dhcp4.OptRequestedIP, offer.YIAddr)
		r.SetIPv4Option(dhcp4.OptServerID, netip.MustParseAddr("192.168.12.250"))
		if ack := srv.Handle(r); ack == nil || ack.Type() != dhcp4.ACK {
			b.Fatal("no ack")
		}
		rel := dhcp4.NewMessage(dhcp4.OpRequest, uint32(i), chaddr)
		rel.SetType(dhcp4.Release)
		srv.Handle(rel)
	}
}

// BenchmarkAblationScoringLogic: the two scorers over a fixed result set.
func BenchmarkAblationScoringLogic(b *testing.B) {
	b.ReportAllocs()
	res := &portal.Results{}
	for _, n := range portal.SubtestNames {
		res.Subs = append(res.Subs, portal.SubResult{Name: n, Fetched: true, Family: "IPv6"})
	}
	b.Run("buggy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			portal.ScoreBuggy(res)
		}
	})
	b.Run("fixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			portal.ScoreFixed(res)
		}
	})
}

// --- substrate microbenchmarks ---------------------------------------------

func BenchmarkDNSMessageMarshalParse(b *testing.B) {
	b.ReportAllocs()
	msg := dnswire.NewQuery(1, "sc24.supercomputing.org", dnswire.TypeAAAA)
	for i := 0; i < b.N; i++ {
		wire, err := msg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dnswire.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNS64Synthesis(b *testing.B) {
	b.ReportAllocs()
	r := dns64.New(dns.NewStatic(
		dnswire.RR{Name: "v4only.example", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("190.92.158.4")},
	))
	q := dnswire.Question{Name: "v4only.example", Type: dnswire.TypeAAAA, Class: dnswire.ClassIN}
	for i := 0; i < b.N; i++ {
		if _, err := r.Resolve(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNAT64UDPTranslation(b *testing.B) {
	b.ReportAllocs()
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	tr, err := nat64.New(nat64.Config{
		Prefix:   dns64.WellKnownPrefix,
		PublicV4: netip.MustParseAddr("203.0.113.1"),
	}, func() time.Time { return now })
	if err != nil {
		b.Fatal(err)
	}
	src := netip.MustParseAddr("2607:fb90:9bda:a425::50")
	dst, _ := dns64.Synthesize(dns64.WellKnownPrefix, netip.MustParseAddr("190.92.158.4"))
	pkt := &packet.IPv6{
		NextHeader: packet.ProtoUDP, HopLimit: 64, Src: src, Dst: dst,
		Payload: (&packet.UDP{SrcPort: 5000, DstPort: 53, Payload: []byte("query")}).Marshal(src, dst),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TranslateV6ToV4(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIPv4Checksum(b *testing.B) {
	b.ReportAllocs()
	p := &packet.IPv4{Protocol: packet.ProtoUDP,
		Src: netip.MustParseAddr("192.168.12.10"), Dst: netip.MustParseAddr("23.153.8.71"),
		Payload: make([]byte, 512)}
	wire := p.Marshal()
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		if _, err := packet.ParseIPv4(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scale benchmarks -------------------------------------------------------

// BenchmarkScaleThousandClients is the paper-scale sweep the NAT64/DNS64
// measurement studies (arXiv:2311.04181, arXiv:2402.14632) run against
// real resolvers: a thousand clients brought up on the full Fig. 4
// topology, each resolving unique names through the poisoned/DNS64
// resolver chain. The healthy cache is capacity-bounded, so memory stays
// capped no matter how many unique names the population floods it with.
func BenchmarkScaleThousandClients(b *testing.B) {
	b.ReportAllocs()
	const (
		nClients       = 1000
		namesPerClient = 4
		cacheBound     = 4096
	)
	for i := 0; i < b.N; i++ {
		tb := testbed.New(testbed.DefaultOptions())
		tb.HealthyCache.MaxEntries = cacheBound
		for c := 0; c < nClients; c++ {
			tb.AddClient(fmt.Sprintf("c%d", c), profiles.Windows10())
		}
		for ci, c := range tb.Clients {
			for j := 0; j < namesPerClient; j++ {
				// Unique, mostly-nonexistent names: the worst case for an
				// unbounded cache (one negative entry per name, forever).
				_, _ = c.Lookup(fmt.Sprintf("h%d-%d.sc24.supercomputing.org", ci, j))
			}
		}
		if got := tb.HealthyCache.Len(); got > cacheBound {
			b.Fatalf("healthy cache exceeded its bound: %d entries > %d", got, cacheBound)
		}
		st := tb.Net.Stats()
		b.ReportMetric(float64(st.FramesDelivered), "frames/op")
		b.ReportMetric(float64(st.AllocsAvoided), "payload_allocs_avoided/op")
	}
}

// BenchmarkBroadcastDomain isolates the switch flood fast path: N
// clients on one switch, one broadcast per iteration delivered to the
// other N-1 ports. With the shared-payload fan-out a flood costs one
// event and one payload copy regardless of port count, so allocs/op is
// O(1) in N and ns/op grows only with the (unavoidable) N handler
// invocations — the flood path is ~linear where the per-port event loop
// made it quadratic across a scenario's lifetime of floods.
func BenchmarkBroadcastDomain(b *testing.B) {
	sink := netsim.FrameHandlerFunc(func(_ *netsim.NIC, _ netsim.Frame) {})
	for _, n := range []int{250, 1000, 4000} {
		b.Run(fmt.Sprintf("clients-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			net := netsim.NewNetwork()
			sw := netsim.NewSwitch(net, "sw")
			nics := make([]*netsim.NIC, n)
			for i := range nics {
				nics[i] = net.NewNIC(fmt.Sprintf("c%d", i), sink)
				nics[i].RestrictFlooding()
				nics[i].AddEtherTypeInterest(netsim.EtherTypeIPv4)
				sw.AttachPort(nics[i])
			}
			payload := make([]byte, 300) // a DHCPv4 DISCOVER-sized broadcast
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nics[i%n].Transmit(netsim.Frame{
					Dst: netsim.Broadcast, EtherType: netsim.EtherTypeIPv4, Payload: payload,
				})
				net.Run(0)
			}
			b.StopTimer()
			st := net.Stats()
			b.ReportMetric(float64(st.FramesDelivered)/float64(b.N), "frames/op")
			if st.FanoutEvents != uint64(b.N) {
				b.Fatalf("floods off the fan-out path: %d events for %d floods", st.FanoutEvents, b.N)
			}
		})
	}
}

// BenchmarkScenarioSharded measures the sharded execution engine: a
// 1000-device conference-floor population run serially on one world vs
// split across 8 independently built worlds. The win is algorithmic,
// not just parallel: broadcast-domain work (ARP/DHCP flooding through
// the learning switch, RA beacons over the longer total virtual
// runtime) is quadratic in clients-per-switch, so 8 worlds of 125
// clients do roughly 1/8 of the flooding one 1000-client world does —
// the speedup survives even on a single core.
func BenchmarkScenarioSharded(b *testing.B) {
	const n = 1000
	devices := scenario.Population(1, n, scenario.DefaultMix())
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb, err := testbed.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			rep := scenario.RunWith(tb, devices, scenario.RunOptions{})
			tb.Close()
			if rep.Joined != n {
				b.Fatal("population lost")
			}
		}
	})
	b.Run("sharded-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := scenario.RunShardedSized(sizedBuild(spec), devices, scenario.ShardOptions{Shards: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Joined != n {
				b.Fatal("population lost")
			}
		}
	})
}

// BenchmarkHeavyTraffic measures the unicast/flow fast path (DESIGN.md
// §3d) from two angles, each as a rings-vs-legacy pair so the ring win
// is read directly off the sub-benchmark ratio:
//
//   - unicast-*: the tentpole microworld — 500 point-to-point host
//     pairs (1000 NICs) each bursting 8 frames per op, the shape a TCP
//     send produces when it segments a large write at one virtual
//     instant. Legacy pays one heap push + pop per frame against a
//     4000-event heap; rings pay one drain event per link and amortize
//     the rest. Payloads are kept small enough that a whole round fits
//     the arena's retired-chunk budget, so the timed loop measures
//     scheduler cost, not payload copying — and the warmed-up ring
//     path must not allocate at all.
//   - flows-*: end-to-end — a conference-floor population streaming
//     paced CDN flows through DNS64+NAT64/CLAT/NAT44 via the scenario
//     traffic layer, reporting simulated flows per wall-clock minute.
//
// BENCH_4.json records the measured ratios; CI regresses allocs/op
// against it.
func BenchmarkHeavyTraffic(b *testing.B) {
	const (
		pairs = 500
		burst = 8
	)
	// 64 B × 4000 frames/round stays inside the arena's 8 retired 32 KiB
	// chunks, so recycling between rounds feeds every copy from the pool.
	payload := make([]byte, 64)
	sink := netsim.FrameHandlerFunc(func(_ *netsim.NIC, _ netsim.Frame) {})

	unicast := func(b *testing.B, rings bool) {
		b.ReportAllocs()
		net := netsim.NewNetwork()
		net.SetUnicastRings(rings)
		tx := make([]*netsim.NIC, pairs)
		rx := make([]*netsim.NIC, pairs)
		for i := 0; i < pairs; i++ {
			tx[i] = net.NewNIC(fmt.Sprintf("a%d", i), sink)
			rx[i] = net.NewNIC(fmt.Sprintf("z%d", i), sink)
			net.Connect(tx[i], rx[i])
		}
		round := func() {
			for i, nc := range tx {
				for k := 0; k < burst; k++ {
					nc.Transmit(netsim.Frame{Dst: rx[i].MAC(), EtherType: netsim.EtherTypeIPv6, Payload: payload})
				}
			}
			net.Run(0)
		}
		// One warm-up round allocates the rings, grows the event heap and
		// primes the arena pool, so the timed loop measures the steady
		// state (and pins 0 allocs/op on the ring path).
		round()
		net.RecycleArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
			net.RecycleArena()
		}
		b.StopTimer()
		st := net.Stats()
		b.ReportMetric(float64(st.FramesDelivered)/float64(b.N+1), "frames/op")
		if rings {
			if st.UnicastRingFrames != st.FramesDelivered {
				b.Fatalf("frames off the ring path: %d of %d", st.FramesDelivered-st.UnicastRingFrames, st.FramesDelivered)
			}
			b.ReportMetric(float64(st.UnicastRingFrames)/float64(st.UnicastRingBatches), "frames/batch")
		} else if st.UnicastRingFrames != 0 {
			b.Fatalf("legacy run used rings: %d frames", st.UnicastRingFrames)
		}
	}
	b.Run("unicast-legacy", func(b *testing.B) { unicast(b, false) })
	b.Run("unicast-rings", func(b *testing.B) { unicast(b, true) })

	const devs = 24
	devices := scenario.Population(1, devs, scenario.DefaultMix())
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), devs)
	traffic := &scenario.TrafficOptions{
		FlowsPerDevice: 8,
		FlowBytes:      12 << 10,
		Pace:           time.Millisecond,
		ChurnFlows:     2,
	}
	flows := func(b *testing.B, rings bool) {
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			tb, err := testbed.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			tb.Net.SetUnicastRings(rings)
			rep := scenario.RunWith(tb, devices, scenario.RunOptions{Traffic: traffic})
			tb.Close()
			if rep.Traffic == nil || rep.Traffic.Flows.Completed == 0 {
				b.Fatal("population streamed nothing")
			}
			total += rep.Traffic.Flows.Opened
		}
		b.StopTimer()
		b.ReportMetric(float64(total)/float64(b.N), "flows/op")
		b.ReportMetric(float64(total)/b.Elapsed().Seconds()*60, "flows/min")
	}
	b.Run("flows-legacy", func(b *testing.B) { flows(b, false) })
	b.Run("flows-rings", func(b *testing.B) { flows(b, true) })
}

// BenchmarkFabricScale measures the hierarchical fabric tier and the
// per-host memory diet (DESIGN.md §3e) at the scale they exist for:
//
//   - million-clients: one process builds a 1000-access-switch ×
//     1000-client fabric world — a million registered clients — and
//     reports the marginal heap cost per registered client (GC-settled
//     HeapAlloc delta across the build). A registered client is a
//     struct-of-arrays table row, so the figure must stay in the
//     hundreds of bytes, not the kilobytes a full Host costs; the
//     benchmark fails outright past 512 B/client. A sample of clients
//     across domains then materializes, browses through DNS64+NAT64
//     and parks again, proving the world is live, after which the
//     active working set must be back to zero.
//   - subtree-sharded: the fabric execution engine end-to-end — an
//     8-domain world run as 4 subtree shards, each shard rebuilding
//     its access switches as an independent world.
//
// BENCH_5.json records the measured bytes/client; CI regresses it (and
// allocs/op) against the snapshot via tools/benchgate.
func BenchmarkFabricScale(b *testing.B) {
	b.Run("million-clients", func(b *testing.B) {
		b.ReportAllocs()
		const (
			access     = 1000
			clientsPer = 1000
			sample     = 8
		)
		// One iteration lives in its own function so the world is
		// unreachable — not merely dead in a reused stack slot — by the
		// time the next iteration's baseline GC runs.
		iteration := func() float64 {
			// Double GC settles sync.Pool victim caches from the previous
			// iteration before the baseline sample.
			runtime.GC()
			runtime.GC()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)

			tb, err := testbed.Build(testbed.FabricTopology(testbed.DefaultOptions(), access, clientsPer))
			if err != nil {
				b.Fatal(err)
			}
			fb := tb.Fabric
			if got := fb.Table.Len(); got != access*clientsPer {
				b.Fatalf("registered %d clients, want %d", got, access*clientsPer)
			}

			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			perClient := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(access*clientsPer)
			if perClient > 512 {
				b.Fatalf("memory diet broken: %.1f bytes/client (limit 512)", perClient)
			}

			// Prove the million-row world is live: bring a spread of
			// clients up through the full option-108 → DNS64 → NAT64
			// pipeline, then park them all.
			for s := 0; s < sample; s++ {
				sw := s * access / sample
				row, _ := fb.Rows(sw)
				c := fb.Materialize(row, fmt.Sprintf("bench-d%d", sw), profiles.MacOS())
				if r, err := httpsim.Browse(c, "http://sc24.supercomputing.org/"); err != nil || r.Response.Status != 200 {
					b.Fatalf("domain %d client browse: status=%v err=%v", sw, r, err)
				}
				fb.Park(row)
			}
			if fb.ActiveCount() != 0 {
				b.Fatalf("%d clients still materialized after parking", fb.ActiveCount())
			}
			tb.Close()
			return perClient
		}
		total := 0.0
		for i := 0; i < b.N; i++ {
			total += iteration()
		}
		b.ReportMetric(total/float64(b.N), "bytes/client")
	})
	b.Run("subtree-sharded", func(b *testing.B) {
		b.ReportAllocs()
		spec := testbed.FabricTopology(testbed.DefaultOptions(), 8, 1000)
		for i := 0; i < b.N; i++ {
			rep, err := scenario.RunFabric(spec, scenario.FabricOptions{
				Seed: 1, ActorsPerDomain: 2, Shards: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Joined != 16 {
				b.Fatalf("joined %d, want 16", rep.Joined)
			}
		}
	})
}

// BenchmarkChaos measures the fault-injected hot path: a 64-device
// population on 10%-loss impaired links, each device churned through one
// gateway reboot and probed back to convergence. Relative to the clean
// BenchmarkScenarioSharded run, the delta is the cost of the impairment
// PRNG draws, the retry/backoff machinery and the renumbering traffic.
func BenchmarkChaos(b *testing.B) {
	b.ReportAllocs()
	const n = 64
	devices := scenario.Population(1, n, scenario.DefaultMix())
	spec := scenario.ChaosSpec(1, n, 0, 0.10)
	opt := scenario.ShardOptions{
		Shards: 4, Seed: 1,
		Run: scenario.RunOptions{RebootsPerDevice: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunShardedSized(sizedBuild(spec), devices, opt)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Joined != n {
			b.Fatal("population lost")
		}
	}
}

// BenchmarkMillionScenario is the streaming engine's capstone: a full
// scenario run over the 1,000,000-registered-client fabric world —
// every one of the 1000 access domains brings a device through the
// option-108 → DNS64 → NAT64 workload — with per-device rows streamed
// out through a RowSink and DiscardDevices on, so the run retains O(1)
// aggregate state instead of an O(devices) report. Two hard in-
// benchmark memory ceilings enforce the bounded-RSS claim: live heap
// sampled mid-run (every 100th row) must stay under 192 MB, and the
// GC-settled heap with the world still alive in its pool must stay
// under 64 MB — a retained per-device slice or per-trial garbage
// pileup fails the benchmark outright, not just a snapshot diff.
// BENCH_6.json records the measured figures; CI regresses allocs/op
// against it.
func BenchmarkMillionScenario(b *testing.B) {
	b.ReportAllocs()
	const (
		access     = 1000
		clientsPer = 1000
	)
	spec := testbed.FabricTopology(testbed.DefaultOptions(), access, clientsPer)
	var peakMB, settledMB float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		pool := scenario.NewWorldPool()
		rows, internet := 0, 0
		peak := uint64(0)
		sink := scenario.RowSinkFunc(func(r scenario.Row) {
			rows++
			if r.Internet {
				internet++
			}
			if rows%100 == 0 {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
			}
		})
		rep, err := scenario.RunFabric(spec, scenario.FabricOptions{
			Seed:            1,
			ActorsPerDomain: 1,
			Pool:            pool,
			Run:             scenario.RunOptions{Sink: sink, DiscardDevices: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Joined != access || rows != access {
			b.Fatalf("joined=%d rows=%d, want %d (every domain reporting)", rep.Joined, rows, access)
		}
		if len(rep.Devices) != 0 {
			b.Fatalf("DiscardDevices run retained %d devices", len(rep.Devices))
		}
		if internet == 0 || rep.InternetOK != internet {
			b.Fatalf("streamed internet=%d, report says %d", internet, rep.InternetOK)
		}

		// Settled ceiling: world (pooled, alive) + report + logs.
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		settled := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
		live := float64(int64(peak)-int64(before.HeapAlloc)) / (1 << 20)
		if live > 192 {
			b.Fatalf("bounded-RSS broken: %.1f MB live heap mid-run (ceiling 192)", live)
		}
		if settled > 64 {
			b.Fatalf("bounded-RSS broken: %.1f MB settled heap post-run (ceiling 64)", settled)
		}
		if live > peakMB {
			peakMB = live
		}
		if settled > settledMB {
			settledMB = settled
		}
		pool.Close()
	}
	b.ReportMetric(peakMB, "peakheap-MB")
	b.ReportMetric(settledMB, "settledheap-MB")
}

// BenchmarkWorldPoolSweep measures what pooled world reuse buys a sweep:
// the same 16-shard cell (one device per world — the repeated-probe
// shape pathology fingerprints and grid repeats produce) run again and
// again, fresh-building every world per run versus checking worlds out
// of a scenario.WorldPool (Checkpoint once, Reset per reuse). The pool
// is pre-warmed outside the timer so the pooled figure is the
// steady-state sweep cost; BENCH_6.json records the ratio, which must
// stay ≥ 2x (the acceptance criterion for the streaming-engine
// tentpole).
func BenchmarkWorldPoolSweep(b *testing.B) {
	const n = 16
	devices := scenario.Population(1, n, scenario.DefaultMix())
	sized := sizedBuild(testbed.ScaleTopology(testbed.DefaultOptions(), n))
	cell := func(pool *scenario.WorldPool) error {
		rep, err := scenario.RunShardedSized(sized, devices, scenario.ShardOptions{
			Shards: 16, Workers: 1, Seed: 1, Pool: pool,
			Run: scenario.RunOptions{DiscardDevices: true},
		})
		if err != nil {
			return err
		}
		if rep.Joined != n {
			return fmt.Errorf("population lost: joined=%d", rep.Joined)
		}
		return nil
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cell(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := scenario.NewWorldPool()
		defer pool.Close()
		if err := cell(pool); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cell(pool); err != nil {
				b.Fatal(err)
			}
		}
	})
}
