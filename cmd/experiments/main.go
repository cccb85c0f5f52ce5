// Command experiments regenerates every figure and table of the paper's
// evaluation on the simulated testbed and prints paper-vs-measured
// reports. Run it with no arguments for everything, or name experiments
// (fig2 fig3 ... fig11 tabA tabB ablA ablB) to run a subset.
package main

import (
	"fmt"
	"net/netip"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/portal"
	"repro/internal/profiles"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

type experiment struct {
	id    string
	title string
	run   func()
}

// exps is the single source of truth for the experiment set; usageText
// renders it, so the README flags reference (pinned by TestUsagePinnedInREADME)
// cannot drift from this table.
var exps = []experiment{
	{"fig2", "IPv4-literal application on the v6 SSID (Echolink)", fig2},
	{"fig3", "5G gateway RA with dead ULA RDNSS", fig3},
	{"fig4", "full testbed topology bring-up", fig4},
	{"fig5", "erroneous test-ipv6 10/10 via poisoned DNS", fig5},
	{"fig6", "IPv4-only Nintendo Switch receives the intervention", fig6},
	{"fig7", "Windows XP works via poisoned DNS64 + NAT64", fig7},
	{"fig8", "VPN split-tunnel vs restricted IPv4", fig8},
	{"fig9", "poisoned answers for non-existent FQDNs", fig9},
	{"fig10", "resolver preference decides exposure to poisoning", fig10},
	{"fig11", "0/10 test-ipv6 score over the VPN", fig11},
	{"tabA", "device-class outcome matrix (paper §V)", tabA},
	{"tabB", "SC23 vs SC24 client counting accuracy (paper §III.A)", tabB},
	{"ablA", "ablation: dnsmasq wildcard vs BIND9 RPZ poisoning", ablA},
	{"ablB", "ablation: buggy vs fixed mirror scoring", ablB},
	{"tabC", "M-21-31 NAT44 logging burden vs IPv6 adoption", tabC},
	{"tabD", "Windows 11 refresh (RFC 8925) adoption sweep (paper §VII)", tabD},
	{"scale", "sharded vs serial conference-floor run (equality + timing)", scale},
	{"fabric", "hierarchical fabric sweep: access switches × clients per switch (DESIGN.md §3e)", fabric},
	{"chaos", "loss × gateway-reboot degradation matrix (DESIGN.md §3b)", chaos},
	{"traffic", "heavy streaming flows through every translator (DESIGN.md §3d)", traffic},
	{"pathology", "pathology × profile degradation matrix + fingerprints (DESIGN.md §3f)", pathologyExp},
	{"stateful", "stateful pathology timelines + budgeted port-pool exhaustion (DESIGN.md §3g)", statefulExp},
}

// pathologyTarget holds the <name> from -pathology=<name>; empty means
// the full sweep.
var pathologyTarget string

// gridFile holds the <file> from -grid=<file>; non-empty switches the
// binary into the experiments.json grid-runner mode.
var gridFile string

// cpuProfile / memProfile hold the <file> from -cpuprofile=<file> and
// -memprofile=<file>; empty means no profile.
var cpuProfile, memProfile string

// usageText is the generated flags reference. It is printed for
// -h/-help/help and pinned verbatim inside README.md's
// experiments-flags block, so the docs and the binary cannot diverge
// silently.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: experiments [experiment ...]\n\n")
	b.WriteString("Runs every experiment when invoked with no arguments, or the named subset:\n\n")
	for _, e := range exps {
		fmt.Fprintf(&b, "  %-11s %s\n", e.id, e.title)
	}
	b.WriteString("\nFlags:\n")
	fmt.Fprintf(&b, "  -grid=<file>       run the experiments.json grid instead: the cross-product of\n")
	fmt.Fprintf(&b, "                     populations x shards x loss_levels x reboot_levels x\n")
	fmt.Fprintf(&b, "                     pathologies, `repeats` times each, streaming one CSV/JSONL\n")
	fmt.Fprintf(&b, "                     row per device to `output` while pooled worlds are reused\n")
	fmt.Fprintf(&b, "                     across repeats via the testbed Checkpoint/Reset lifecycle\n")
	fmt.Fprintf(&b, "  -pathology=<name>  fingerprint a single registered pathology and decode it\n")
	fmt.Fprintf(&b, "                     (the PATHOLOGIES.md repro command); names: %s\n",
		strings.Join(pathology.Names(), ", "))
	fmt.Fprintf(&b, "  -cpuprofile=<file> write a CPU profile of the run to <file> (go tool pprof)\n")
	fmt.Fprintf(&b, "  -memprofile=<file> write a heap profile to <file> when the run ends\n")
	fmt.Fprintf(&b, "  -h, -help          print this reference\n")
	return b.String()
}

func main() {
	want := map[string]bool{}
	for _, a := range os.Args[1:] {
		a = strings.TrimLeft(a, "-")
		if a == "h" || a == "help" {
			fmt.Print(usageText())
			return
		}
		if k, v, ok := strings.Cut(a, "="); ok {
			switch k {
			case "pathology":
				pathologyTarget = v
				a = k
			case "grid":
				gridFile = v
				a = k
			case "cpuprofile":
				cpuProfile = v
				continue
			case "memprofile":
				memProfile = v
				continue
			}
		}
		want[a] = true
	}
	stop, err := profiling.Start(cpuProfile, memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: profile: %v\n", err)
		os.Exit(1)
	}
	code := run(want)
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: profile: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// run executes the grid or the selected experiments and returns the
// process exit code.
func run(want map[string]bool) int {
	if gridFile != "" {
		if err := runGrid(gridFile); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: grid: %v\n", err)
			return 1
		}
		return 0
	}
	for _, e := range exps {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		e.run()
		fmt.Println()
	}
	return 0
}

func fetcher(tb *testbed.Testbed, clientIdx int) portal.Fetcher {
	c := tb.Clients[clientIdx]
	return func(url string) (*httpsim.Response, error) {
		r, err := httpsim.Browse(c, url)
		if err != nil {
			return nil, err
		}
		return r.Response, nil
	}
}

func fig2() {
	fmt.Println("paper: a dual-stack laptop running Echolink (IPv4 literals) worked on SC23v6")
	fmt.Println("       and polluted the IPv6-only client statistics")
	tb := testbed.New(testbed.DefaultOptions())
	devices := []scenario.DeviceSpec{
		{Name: "ham-laptop", Profile: profiles.Windows10(), EcholinkOnly: true},
		{Name: "attendee1", Profile: profiles.MacOS()},
		{Name: "attendee2", Profile: profiles.IOS()},
	}
	rep := scenario.RunWith(tb, devices, scenario.RunOptions{})
	for _, d := range rep.Devices {
		fmt.Printf("measured: %-12s class=%-10s internet=%v informed=%v\n",
			d.Spec.Name, d.Class, d.Internet, d.Informed)
	}
	fmt.Printf("measured: reported SSID clients=%d, truly IPv6-only=%d, overcount=%d\n",
		rep.ReportedSSIDClients, rep.TrueIPv6Only, rep.Overcount)
	fmt.Println("shape: the literal-only device still works and still inflates the count — DNS")
	fmt.Println("       interventions cannot reach applications that never resolve names")
}

func fig3() {
	fmt.Println("paper: the gateway's RA advertises RDNSS fd00:976a::9/::10, which are dead;")
	fmt.Println("       a managed-switch low-priority ULA RA makes them reachable")
	opt := testbed.DefaultOptions()
	opt.SwitchULARA = false
	tb := testbed.New(opt)
	c := tb.AddClient("probe", profiles.IPv6OnlyLinux())
	_, err := c.Lookup("sc24.supercomputing.org")
	fmt.Printf("measured: without switch RA: lookup error = %v\n", err)

	tb2 := testbed.New(testbed.DefaultOptions())
	c2 := tb2.AddClient("probe", profiles.IPv6OnlyLinux())
	res, err := c2.Lookup("sc24.supercomputing.org")
	if err != nil {
		fmt.Printf("measured: with switch RA: UNEXPECTED error %v\n", err)
		return
	}
	best, _ := res.BestAddr()
	fmt.Printf("measured: with switch RA: resolver=%v answered %v\n", res.Resolver, best)
}

func fig4() {
	fmt.Println("paper: Fig. 4 topology — gateway + managed switch + three Raspberry Pi roles")
	tb := testbed.New(testbed.DefaultOptions())
	for _, prof := range []string{"macOS", "Windows 10", "Windows XP", "Nintendo Switch"} {
		for _, b := range profiles.All() {
			if b.Name != prof {
				continue
			}
			c := tb.AddClient("probe-"+prof, b)
			o := core.Evaluate(tb, c)
			used := o.UsedAddr
			if used == "" {
				used = "n/a"
			}
			fmt.Printf("measured: %-18s -> %-18s (used %s)\n", prof, o.Class, used)
		}
	}
	fmt.Printf("measured: switch snooped %d gateway DHCP frames; gateway sent %d RAs\n",
		tb.Switch.SnoopedDrops, tb.Gateway.RAsSent)
}

func fig5() {
	fmt.Println("paper: IPv6-disabled Windows 10 + poisoned DNS pointing at test-ipv6.com's v4")
	fmt.Println("       address erroneously scored 10/10; target then switched to ip6.me")
	opt := testbed.DefaultOptions()
	opt.RedirectV4 = testbed.MirrorV4
	tb := testbed.New(opt)
	tb.AddClient("win10-nov6", profiles.Windows10NoV6())
	res := portal.Run(fetcher(tb, 0), tb.Mirror)
	fmt.Printf("measured: redirect=test-ipv6.com  buggy=%v  fixed=%v\n",
		portal.ScoreBuggy(res), portal.ScoreFixed(res))

	tb2 := testbed.New(testbed.DefaultOptions())
	tb2.AddClient("win10-nov6", profiles.Windows10NoV6())
	res2 := portal.Run(fetcher(tb2, 0), tb2.Mirror)
	r, err := httpsim.Browse(tb2.Clients[0], "http://ds.test-ipv6.com/")
	landed := err == nil && strings.Contains(string(r.Response.Body), "lack of IPv6 support")
	fmt.Printf("measured: redirect=ip6.me        buggy=%v  fixed=%v  intervention-page=%v\n",
		portal.ScoreBuggy(res2), portal.ScoreFixed(res2), landed)
}

func fig6() {
	fmt.Println("paper: an IPv4-only Nintendo Switch reports no connectivity and displays the")
	fmt.Println("       ip6.me redirection; changing DNS to a known-good server restores IPv4")
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("console", profiles.NintendoSwitch())
	r, err := httpsim.Browse(c, "http://sc24.supercomputing.org/")
	if err != nil {
		fmt.Printf("measured: browse error %v\n", err)
		return
	}
	fmt.Printf("measured: intervention page shown = %v\n",
		strings.Contains(string(r.Response.Body), "lack of IPv6 support"))

	// The escape hatch the paper notes: manually set a known-good resolver.
	c.DNSOverride = []netip.Addr{testbed.HealthyV4}
	r, err = httpsim.Browse(c, "http://sc24.supercomputing.org/")
	if err != nil {
		fmt.Printf("measured: after DNS override: error %v\n", err)
		return
	}
	fmt.Printf("measured: after DNS override: via %v -> %q\n", r.UsedAddr, firstLine(r.Response.Body))
}

func fig7() {
	fmt.Println("paper: Windows XP (IPv4-transport DNS only) browses IPv4-only sites via")
	fmt.Println("       NAT64/DNS64 through the poisoned server's healthy AAAA path")
	tb := testbed.New(testbed.DefaultOptions())
	xp := tb.AddClient("xp", profiles.WindowsXP())
	res, err := xp.Lookup("sc24.supercomputing.org")
	if err != nil {
		fmt.Printf("measured: lookup error %v\n", err)
		return
	}
	best, _ := res.BestAddr()
	pr, perr := xp.Ping(best, time.Second)
	r, berr := httpsim.Browse(xp, "http://sc24.supercomputing.org/")
	fmt.Printf("measured: resolver=%v (the poisoned server)  AAAA=%v\n", res.Resolver, best)
	fmt.Printf("measured: ping reply from %v (err=%v)\n", pr.From, perr)
	if berr == nil {
		fmt.Printf("measured: browse via %v -> %q\n", r.UsedAddr, firstLine(r.Response.Body))
	}
}

func fig8() {
	fmt.Println("paper: split-tunnel VPN clients using IPv4 literals lose their VTC when IPv4")
	fmt.Println("       internet is further restricted")
	tb := testbed.New(testbed.DefaultOptions())
	tb.InstallVPN()
	c := tb.AddClient("laptop", profiles.Windows10())
	vc := tb.NewVPNClient(c)
	if err := vc.Connect(); err != nil {
		fmt.Printf("measured: vpn connect failed: %v\n", err)
		return
	}
	_, err := vc.Fetch("http://" + testbed.VTCV4.String() + "/")
	fmt.Printf("measured: VTC via split tunnel (IPv4 allowed):    err=%v\n", err)
	tb.RestrictIPv4Internet()
	_, err = vc.Fetch("http://" + testbed.VTCV4.String() + "/")
	fmt.Printf("measured: VTC via split tunnel (IPv4 restricted): err=%v\n", err)
	_, err = c.Lookup("sc24.supercomputing.org")
	fmt.Printf("measured: IPv6 path unaffected by the ACL: lookup err=%v\n", err)
}

func fig9() {
	fmt.Println("paper: nslookup receives a poisoned A for the non-existent suffixed FQDN;")
	fmt.Println("       ping still gets the valid AAAA")
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("win11", profiles.Windows11())
	ns, err := c.NSLookup("vpn.anl.gov", dnswire.TypeA)
	if err == nil {
		fmt.Printf("measured: nslookup answer name=%s addrs=%v\n", ns.Name, ns.Addrs)
	}
	res, err := c.Lookup("vpn.anl.gov")
	if err == nil {
		best, _ := res.BestAddr()
		fmt.Printf("measured: getaddrinfo best=%v (suffix applied=%v)\n", best, res.SuffixApplied)
	}
}

func fig10() {
	fmt.Println("paper: Windows 10/Linux prefer the RDNSS resolver and never touch the")
	fmt.Println("       poisoned server; some Windows 11 builds prefer the DHCPv4 resolver")
	tb := testbed.New(testbed.DefaultOptions())
	win10 := tb.AddClient("win10", profiles.Windows10())
	before := len(tb.PoisonLog.Queries)
	_, _ = win10.Lookup("sc24.supercomputing.org")
	fmt.Printf("measured: Windows 10 poisoned-server queries: %d\n", len(tb.PoisonLog.Queries)-before)

	win11 := tb.AddClient("win11", profiles.Windows11())
	before = len(tb.PoisonLog.Queries)
	_, _ = win11.Lookup("sc24.supercomputing.org")
	fmt.Printf("measured: Windows 11 poisoned-server queries: %d\n", len(tb.PoisonLog.Queries)-before)
}

func fig11() {
	fmt.Println("paper: Argonne VPN users scored 0/10 on the SC23 test-ipv6 mirror")
	tb := testbed.New(testbed.DefaultOptions())
	tb.InstallVPN()
	c := tb.AddClient("laptop", profiles.Windows10())
	vc := tb.NewVPNClient(c)
	if err := vc.Connect(); err != nil {
		fmt.Printf("measured: connect err=%v\n", err)
		return
	}
	res := portal.Run(vc.Fetch, tb.Mirror)
	fmt.Printf("measured: over VPN: buggy=%v fixed=%v\n", portal.ScoreBuggy(res), portal.ScoreFixed(res))
}

func tabA() {
	fmt.Println("paper §V: per-device-class outcomes under the SC24v6 configuration")
	rows := core.Matrix(testbed.DefaultOptions())
	for _, r := range rows {
		fmt.Println("measured:", r)
	}
	counts := core.CountClasses(rows)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("measured: %-18s %d\n", k, counts[core.OutcomeClass(k)])
	}
}

func tabB() {
	fmt.Println("paper §III.A: accurate IPv6-only client counting, SC23 vs SC24")
	devices := scenario.Population(1, 60, scenario.DefaultMix())

	optBase := testbed.DefaultOptions()
	optBase.Poison = testbed.PoisonOff
	base := scenario.RunWith(testbed.New(optBase), devices, scenario.RunOptions{})
	sc24 := scenario.RunWith(testbed.New(testbed.DefaultOptions()), devices, scenario.RunOptions{})

	fmt.Printf("measured: %-8s joined=%-3d informed=%-3d internet=%-3d reported=%-3d true-v6only=%-3d overcount=%d\n",
		"SC23", base.Joined, base.Informed, base.InternetOK, base.ReportedSSIDClients, base.TrueIPv6Only, base.Overcount)
	fmt.Printf("measured: %-8s joined=%-3d informed=%-3d internet=%-3d reported=%-3d true-v6only=%-3d overcount=%d\n",
		"SC24", sc24.Joined, sc24.Informed, sc24.InternetOK, sc24.ReportedSSIDClients, sc24.TrueIPv6Only, sc24.Overcount)
}

func ablA() {
	fmt.Println("paper §VI: RPZ would fix the non-existent-FQDN pathology at the cost of an")
	fmt.Println("          upstream existence check per A query")
	for _, policy := range []struct {
		name string
		p    testbed.PoisonPolicy
	}{{"wildcard", testbed.PoisonWildcard}, {"rpz", testbed.PoisonRPZ}} {
		opt := testbed.DefaultOptions()
		opt.Poison = policy.p
		tb := testbed.New(opt)
		c := tb.AddClient("win11", profiles.Windows11())
		ns, err := c.NSLookup("vpn.anl.gov", dnswire.TypeA)
		if err != nil {
			fmt.Printf("measured: %-8s error %v\n", policy.name, err)
			continue
		}
		var upstreamChecks uint64
		switch policy.p {
		case testbed.PoisonWildcard:
			upstreamChecks = tb.Wildcard.Forwarded
		case testbed.PoisonRPZ:
			upstreamChecks = tb.RPZ.Forwarded
		}
		fmt.Printf("measured: %-8s nslookup answer=%s (bogus suffixed answer=%v), upstream queries so far=%d\n",
			policy.name, ns.Name, ns.Name != "vpn.anl.gov.", upstreamChecks)
	}
}

func ablB() {
	fmt.Println("paper §VI: only RFC 8925 clients should score 10/10")
	tb := testbed.New(testbed.DefaultOptions())
	for i, b := range []struct {
		name string
		p    string
	}{{"RFC8925+CLAT", "macOS"}, {"dual-stack", "Windows 10"}, {"IPv4-only", "Nintendo Switch"}} {
		for _, prof := range profiles.All() {
			if prof.Name != b.p {
				continue
			}
			tb.AddClient(fmt.Sprintf("probe%d", i), prof)
			res := portal.Run(fetcher(tb, len(tb.Clients)-1), tb.Mirror)
			fmt.Printf("measured: %-14s buggy=%v fixed=%v\n", b.name, portal.ScoreBuggy(res), portal.ScoreFixed(res))
		}
	}
}

func tabC() {
	fmt.Println("paper §II: OMB M-21-31 requires logging every NAT translation — a burden Argonne")
	fmt.Println("          cites for avoiding NAT; IPv6-first networks shift flows onto NAT64")
	devices := scenario.Population(1, 60, scenario.DefaultMix())
	for _, pol := range []struct {
		name   string
		poison testbed.PoisonPolicy
	}{{"SC23", testbed.PoisonOff}, {"SC24", testbed.PoisonWildcard}} {
		opt := testbed.DefaultOptions()
		opt.Poison = pol.poison
		rep := scenario.RunWith(testbed.New(opt), devices, scenario.RunOptions{})
		fmt.Printf("measured: %-5s nat44-log-entries=%-4d nat64-sessions=%-4d internet=%d/%d\n",
			pol.name, rep.NAT44LogEntries, rep.NAT64Sessions, rep.InternetOK, rep.Joined)
	}
	fmt.Println("shape: per-flow NAT44 log lines exist only for the legacy-IPv4 tail; every")
	fmt.Println("       IPv6-capable client rides NAT64/native v6 with no M-21-31 log entry")
}

func tabD() {
	fmt.Println("paper §VII: the Windows 10 EOL refresh cycle as a catalyst — as the Windows")
	fmt.Println("           population gains RFC 8925, exposure to the poisoned resolver and the")
	fmt.Println("           counting overcount both shrink")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		devices := scenario.Population(2, 40, scenario.AdoptionMix(frac))
		tb := testbed.New(testbed.DefaultOptions())
		rep := scenario.RunWith(tb, devices, scenario.RunOptions{})
		fmt.Printf("measured: refreshed=%3.0f%%  overcount=%-3d poisoned-queries=%-4d informed=%-2d internet=%d/%d\n",
			frac*100, rep.Overcount, len(tb.PoisonLog.Queries), rep.Informed, rep.InternetOK, rep.Joined)
	}
}

func scale() {
	fmt.Println("engine: the same population run serially on one world and sharded across 8")
	fmt.Println("        independent worlds must produce identical reports (see DESIGN.md §3a)")
	const n = 240
	devices := scenario.Population(1, n, scenario.DefaultMix())
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)

	world, err := testbed.Build(spec)
	if err != nil {
		fmt.Printf("measured: build error %v\n", err)
		return
	}
	start := time.Now()
	serial := scenario.RunWith(world, devices, scenario.RunOptions{})
	serialTook := time.Since(start)
	world.Close()

	start = time.Now()
	build := func(int) (*testbed.Testbed, error) { return testbed.Build(spec) }
	sharded, err := scenario.RunShardedSized(build, devices, scenario.ShardOptions{Shards: 8, Seed: 1})
	if err != nil {
		fmt.Printf("measured: sharded run error %v\n", err)
		return
	}
	shardedTook := time.Since(start)

	for _, row := range []struct {
		name string
		r    *scenario.Report
		d    time.Duration
	}{{"serial", serial, serialTook}, {"sharded-8", sharded, shardedTook}} {
		fmt.Printf("measured: %-10s joined=%-4d informed=%-3d internet=%-4d overcount=%-3d nat64=%-4d poisoned-queries=%-4d wall=%v\n",
			row.name, row.r.Joined, row.r.Informed, row.r.InternetOK,
			row.r.Overcount, row.r.NAT64Sessions, row.r.PoisonedQueries, row.d.Round(time.Millisecond))
	}
	equal := serial.Joined == sharded.Joined && serial.Informed == sharded.Informed &&
		serial.InternetOK == sharded.InternetOK && serial.Overcount == sharded.Overcount &&
		serial.NAT64Sessions == sharded.NAT64Sessions && serial.PoisonedQueries == sharded.PoisonedQueries
	fmt.Printf("measured: reports equal=%v  speedup=%.1fx (broadcast-domain work is quadratic\n",
		equal, float64(serialTook)/float64(shardedTook))
	fmt.Println("          in clients-per-switch, so 8 worlds of n/8 clients flood ~1/8 as much)")
}

func fabric() {
	fmt.Println("engine: the hierarchical fabric tier — clients live behind access switches")
	fmt.Println("        trunked into the distribution switch, floods stay inside their access")
	fmt.Println("        domain, and a registered client is a ~32-byte table row until it acts")
	for _, shape := range []struct{ access, per int }{{2, 250}, {4, 1000}, {8, 4000}} {
		spec := testbed.FabricTopology(testbed.DefaultOptions(), shape.access, shape.per)
		start := time.Now()
		rep, err := scenario.RunFabric(spec, scenario.FabricOptions{Seed: 1, ActorsPerDomain: 2})
		if err != nil {
			fmt.Printf("measured: %dx%d fabric run error %v\n", shape.access, shape.per, err)
			return
		}
		fmt.Printf("measured: %2d sw × %-5d registered=%-6d acting=%-3d informed=%-2d internet=%-3d overcount=%-2d wall=%v\n",
			shape.access, shape.per, shape.access*shape.per, rep.Joined,
			rep.Informed, rep.InternetOK, rep.Overcount, time.Since(start).Round(time.Millisecond))
	}

	// A shard is a fabric subtree: rerunning the middle shape split into
	// per-subtree worlds must reproduce the serial report exactly.
	spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 1000)
	opt := scenario.FabricOptions{Seed: 1, ActorsPerDomain: 2}
	serial, err := scenario.RunFabric(spec, opt)
	if err != nil {
		fmt.Printf("measured: serial fabric run error %v\n", err)
		return
	}
	opt.Shards = 4
	sharded, err := scenario.RunFabric(spec, opt)
	if err != nil {
		fmt.Printf("measured: subtree-sharded run error %v\n", err)
		return
	}
	equal := serial.Joined == sharded.Joined && serial.Informed == sharded.Informed &&
		serial.InternetOK == sharded.InternetOK && serial.Overcount == sharded.Overcount &&
		serial.NAT64Sessions == sharded.NAT64Sessions && serial.PoisonedQueries == sharded.PoisonedQueries
	fmt.Printf("measured: serial == subtree-sharded (4 worlds, one per access switch): %v\n", equal)
	fmt.Println("shape: per-domain DHCP pools, name-keyed impairment and per-domain profile")
	fmt.Println("       streams make a domain's outcomes a pure function of (seed, domain),")
	fmt.Println("       so any subtree partition folds back to the serial report")
}

func chaos() {
	fmt.Println("engine: sweep the loss × gateway-reboot grid over impaired worlds; every value")
	fmt.Println("        is a counter or virtual-clock duration, so this output is deterministic")
	fmt.Println("        and documented verbatim in EXPERIMENTS.md §chaos")
	fmt.Print(chaosBlock())
	fmt.Println("shape: loss hurts the v4-only tail first (DHCP retransmission vs RA beacons);")
	fmt.Println("       churned devices that had internet re-converge within the RA/DHCP retry")
	fmt.Println("       budget, and the renumbered prefix never strands an RFC 4862 host")
}

// chaosBlock is the chaos experiment's matrix, pinned verbatim in
// EXPERIMENTS.md §chaos.
func chaosBlock() string {
	cells, err := scenario.Sweep(scenario.Grid{
		Seed:         1,
		Populations:  []int{24},
		Shards:       []int{4},
		LossLevels:   []float64{0, 0.10, 0.30},
		RebootLevels: []int{0, 1, 2},
	}, nil)
	if err != nil {
		return fmt.Sprintf("measured: chaos sweep error %v\n", err)
	}
	return degradationMatrix(1, cells)
}

func traffic() {
	fmt.Println("engine: every internet-capable device streams paced CDN flows (plus churned")
	fmt.Println("        ones torn down mid-transfer) from the IPv4-only cdn.example.com, so")
	fmt.Println("        each class crosses its translator: DNS64+NAT64 for v6-only, CLAT for")
	fmt.Println("        464XLAT, NAT44 for legacy v4. Counters are deterministic (seed 1).")
	const n = 24
	devices := scenario.Population(1, n, scenario.DefaultMix())
	opt := scenario.RunOptions{Traffic: &scenario.TrafficOptions{
		FlowsPerDevice: 4,
		FlowBytes:      32 << 10,
		Pace:           2 * time.Millisecond,
		ChurnFlows:     1,
	}}
	fac := pathology.FactorySized(testbed.ScaleTopology(testbed.DefaultOptions(), n), pathology.None)
	rep, err := scenario.RunShardedSized(fac, devices, scenario.ShardOptions{Seed: 1, Run: opt})
	if err != nil {
		fmt.Printf("measured: run error %v\n", err)
		return
	}
	fmt.Print("measured: " + strings.ReplaceAll(rep.Traffic.String(), "\n", "\n          "))
	fmt.Println()
	classes := make([]metrics.Class, 0, len(rep.Traffic.PerClass))
	for cls := range rep.Traffic.PerClass {
		classes = append(classes, cls)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, cls := range classes {
		fs := rep.Traffic.PerClass[cls]
		fmt.Printf("measured: %-14s opened=%-3d completed=%-3d aborted=%-3d down=%d bytes\n",
			cls, fs.Opened, fs.Completed, fs.Aborted, fs.BytesDown)
	}
	fmt.Println("shape: downloads dominate NAT64 inbound bytes; churned flows stop generating")
	fmt.Println("       at the server's next pace tick; every per-class byte count merges")
	fmt.Println("       shard-exactly (TestTrafficShardedMatchesSerial)")
}

func pathologyExp() {
	if pathologyTarget != "" {
		pathologyDetail(pathologyTarget)
		return
	}
	fmt.Println("engine: install each registered DNS/NAT64/delegation failure mode into fresh")
	fmt.Println("        worlds and sweep the default population across it; every cell is a")
	fmt.Println("        deterministic sharded run, documented verbatim in EXPERIMENTS.md §bench6")
	fmt.Print(pathologyBlock())
	fmt.Println("shape: checksum corruption guts ordinary browsing; v4-path interference and the")
	fmt.Println("       mismatched DNS64 prefix only flip the v4-DNS-preferring tail onto the")
	fmt.Println("       intervention page; delegation and PTB failures are invisible to plain page")
	fmt.Println("       fetches — only the mirror's probe suite (the fingerprint) exposes them")
}

// pathologyBlock is the pathology × profile matrix and the mirror
// fingerprints, pinned verbatim in EXPERIMENTS.md §bench6.
func pathologyBlock() string {
	cells, err := scenario.Sweep(scenario.Grid{Seed: 1, Shards: []int{4}, Pathologies: pathology.Names()}, nil)
	if err != nil {
		return fmt.Sprintf("measured: pathology sweep error %v\n", err)
	}
	var b strings.Builder
	b.WriteString(pathologyMatrix(1, cells))
	b.WriteString("\nmirror fingerprints (ScoreFixed points per canonical profile, PATHOLOGIES.md):\n")
	fmt.Fprintf(&b, "measured: %-26s %-13s %s\n", "pathology", "mac/W10/W11/XP/NSw/v6Lnx", "codes")
	for _, name := range pathology.Names() {
		f, err := pathology.Compute(name)
		if err != nil {
			fmt.Fprintf(&b, "measured: %-26s error %v\n", name, err)
			continue
		}
		fmt.Fprintf(&b, "measured: %-26s %-13s %s\n", name, f.String(), strings.Join(f.Codes[:], " "))
	}
	return b.String()
}

func pathologyDetail(name string) {
	p, ok := pathology.Get(name)
	if !ok {
		fmt.Printf("unknown pathology %q; registered: %s\n", name, strings.Join(pathology.Names(), ", "))
		return
	}
	fmt.Printf("pathology: %s\n", p.Name)
	fmt.Printf("source:    %s\n", p.Source)
	fmt.Printf("mechanism: %s\n", p.Mechanism)
	if p.Stateful() {
		fmt.Printf("schedule:  %s\n", p.ScheduleDoc)
	}
	f, err := pathology.Compute(name)
	if err != nil {
		fmt.Printf("measured: fingerprint error %v\n", err)
		return
	}
	profs := pathology.FingerprintProfiles()
	for i, prof := range profs {
		fmt.Printf("measured: %-18s score=%-2d codes=%s\n", prof.Name, f.Points[i], f.Codes[i])
	}
	fmt.Printf("measured: fingerprint vector %s\n", f.String())
	if p.Stateful() {
		tl, err := pathology.ComputeTimeline(name)
		if err != nil {
			fmt.Printf("measured: timeline error %v\n", err)
		} else {
			fmt.Printf("measured: timeline %s\n", tl)
		}
	}
	d, err := pathology.NewDecoder()
	if err != nil {
		fmt.Printf("measured: decoder error %v\n", err)
		return
	}
	decoded, err := d.Decode(f.Points)
	if err != nil {
		fmt.Printf("measured: decoder error %v\n", err)
		return
	}
	fmt.Printf("measured: decoder maps the vector back to %q\n", decoded)
}

func statefulExp() { fmt.Print(statefulBlock()) }

// statefulBlock is the stateful experiment's whole output, pinned
// verbatim (under its "== stateful" header) in EXPERIMENTS.md §bench7.
func statefulBlock() string {
	var b strings.Builder
	fmt.Fprintln(&b, "engine: arm each stateful pathology on the canonical probe windows (onset 60s,")
	fmt.Fprintln(&b, "        active 120s, registered flap pattern kept) and fingerprint the same")
	fmt.Fprintln(&b, "        client before onset, mid-failure and after recovery; then run the")
	fmt.Fprintln(&b, "        budgeted port-pool exhaustion under the heavy-traffic workload serial")
	fmt.Fprintln(&b, "        vs sharded to show the pro-rata split keeps the merge exact")
	fmt.Fprintf(&b, "measured: %-22s %-14s %-14s %s\n", "pathology", "pre-onset", "active", "recovered")
	for _, name := range pathology.Names() {
		p, _ := pathology.Get(name)
		if !p.Stateful() {
			continue
		}
		tl, err := pathology.ComputeTimeline(name)
		if err != nil {
			fmt.Fprintf(&b, "measured: %-22s timeline error %v\n", name, err)
			continue
		}
		fmt.Fprintf(&b, "measured: %-22s %-14s %-14s %s\n", name, tl.PreOnset, tl.Active, tl.Recovered)
	}

	const n = 24
	devices := scenario.Population(1, n, scenario.DefaultMix())
	fac := pathology.FactorySized(testbed.ScaleTopology(testbed.DefaultOptions(), n), "nat64-port-exhaustion")
	run := scenario.RunOptions{Traffic: &scenario.TrafficOptions{
		FlowsPerDevice: 4,
		FlowBytes:      32 << 10,
		Pace:           2 * time.Millisecond,
		ChurnFlows:     1,
	}}
	serial, err := scenario.RunShardedSized(fac, devices, scenario.ShardOptions{Shards: 1, Seed: 1, Run: run})
	if err != nil {
		fmt.Fprintf(&b, "measured: serial run error %v\n", err)
		return b.String()
	}
	sharded, err := scenario.RunShardedSized(fac, devices, scenario.ShardOptions{Shards: 4, Seed: 1, Run: run})
	if err != nil {
		fmt.Fprintf(&b, "measured: sharded run error %v\n", err)
		return b.String()
	}
	line := func(tag string, r *scenario.Report) {
		fmt.Fprintf(&b, "measured: %-7s internet=%-2d informed=%-2d nat64-sessions=%-3d ports-exhausted=%-4d flows completed=%d aborted=%d\n",
			tag, r.InternetOK, r.Informed, r.NAT64Sessions,
			r.Traffic.Gateway.NAT64PortsExhausted, r.Traffic.Flows.Completed, r.Traffic.Flows.Aborted)
	}
	line("serial", serial)
	line("K=4", sharded)
	match := serial.InternetOK == sharded.InternetOK && serial.Informed == sharded.Informed &&
		serial.NAT64Sessions == sharded.NAT64Sessions &&
		serial.Traffic.Gateway.NAT64PortsExhausted == sharded.Traffic.Gateway.NAT64PortsExhausted &&
		serial.Traffic.Flows == sharded.Traffic.Flows
	fmt.Fprintf(&b, "measured: serial == sharded: %v\n", match)
	fmt.Fprintln(&b, "shape: the quota bites hardest on parallel probe bursts; refused flows get the")
	fmt.Fprintln(&b, "       RFC 6146 ICMPv6 unreachable and fail fast, and every counter above folds")
	fmt.Fprintln(&b, "       shard-exactly because each world's port pool is quota × its own devices")
	return b.String()
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
