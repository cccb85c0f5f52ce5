package testbed_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/dns"
	"repro/internal/dns64"
	"repro/internal/dnspoison"
	"repro/internal/gateway5g"
	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/mgmtswitch"
	"repro/internal/nat44"
	"repro/internal/nat64"
	"repro/internal/netsim"
	"repro/internal/pathology"
	"repro/internal/profiles"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// rewindAudit classifies every field of every type testbed.Reset
// rewinds. state names the embedded struct holding the rewound fields;
// every other field is either fixed (set by Build or a pathology
// install and never written after Checkpoint) or transient (emptied,
// truncated or re-armed by Restore/Reset). whole marks types Checkpoint
// copies by value: their scalars rewind with the copy, so only the
// reference-typed fields, which the copy shares, need a class.
var rewindAudit = []struct {
	typ       reflect.Type
	state     string
	whole     bool
	fixed     []string
	transient []string
}{
	{typ: reflect.TypeOf(netsim.Network{}), state: "netState",
		fixed:     []string{"Clock", "ringsOff"},
		transient: []string{"queue", "stopped", "arena", "fanoutFree", "ringNICs"}},
	{typ: reflect.TypeOf(netsim.Switch{}), state: "switchState",
		fixed:     []string{"name", "net", "scopeTrunks"},
		transient: []string{"ports", "filters", "scratch"}},
	{typ: reflect.TypeOf(hoststack.Host{}), state: "hostState",
		fixed:     []string{"Net", "NIC", "B", "name", "sel", "linkLocal"},
		transient: []string{"ndPending", "arpPending", "tcpConns", "accepts", "pings", "raMemos", "Events"}},
	{typ: reflect.TypeOf(gateway5g.Gateway{}), state: "state",
		fixed:     []string{"cfg", "net", "lan", "wan", "linkLocal", "wanPeerMAC", "haveWAN", "DHCP", "NAT44", "NAT64", "raDown"},
		transient: []string{"txBuf", "raTimer"}},
	{typ: reflect.TypeOf(mgmtswitch.Switch{}), state: "state",
		fixed:     []string{"Switch", "cfg", "net", "mac", "linkLocal", "blockedPorts"},
		transient: []string{"raTimer"}},
	{typ: reflect.TypeOf(dhcp4.Server{}), state: "state",
		fixed: []string{"cfg", "now", "domainOf"}},
	{typ: reflect.TypeOf(dns.Cache{}), state: "cacheState",
		fixed: []string{"Inner", "Now", "NegativeTTL", "MaxEntries"}},
	{typ: reflect.TypeOf(nat64.Translator{}), state: "state",
		fixed: []string{"now"}},
	{typ: reflect.TypeOf(nat44.Translator{}), state: "state",
		fixed:     []string{"public", "now", "timeout"},
		transient: []string{"Log"}},
	{typ: reflect.TypeOf(dns64.Resolver{}), whole: true,
		fixed: []string{"Inner", "Exclude", "Suppress"}},
	{typ: reflect.TypeOf(dnspoison.Wildcard{}), whole: true,
		fixed: []string{"Upstream", "Exempt"}},
	{typ: reflect.TypeOf(dnspoison.RPZ{}), whole: true,
		fixed: []string{"Upstream", "Exempt"}},
	{typ: reflect.TypeOf(testbed.Testbed{}),
		fixed: []string{"Opt", "Spec", "Net", "Internet", "Gateway", "Switch", "HealthyPi", "PoisonPi",
			"DHCPPi", "DHCPServer", "Healthy64", "HealthyCache", "Wildcard", "RPZ", "Mirror", "cp",
			"Fabric", "AlignPeriod", "SampleNAT64PerTrial"},
		transient: []string{"HealthyLog", "PoisonLog", "poisonSwitch", "Clients"}},
	{typ: reflect.TypeOf(testbed.Fabric{}),
		fixed:     []string{"tb", "spec", "Switches", "rowStart"},
		transient: []string{"Table", "active", "macDomain"}},
}

// auditProblems checks one audited type and returns what is wrong.
func auditProblems(typ reflect.Type, state string, whole bool, fixed, transient []string) []string {
	var out []string
	class := map[string]string{}
	for _, list := range []struct {
		name  string
		names []string
	}{{"fixed", fixed}, {"transient", transient}} {
		for _, n := range list.names {
			if prev, dup := class[n]; dup {
				out = append(out, fmt.Sprintf("%s.%s listed as both %s and %s", typ, n, prev, list.name))
			}
			class[n] = list.name
		}
	}
	sawState := false
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if state != "" && f.Name == state {
			if !f.Anonymous || f.Type.Kind() != reflect.Struct {
				out = append(out, fmt.Sprintf("%s.%s is not an embedded state struct", typ, f.Name))
			}
			sawState = true
			continue
		}
		_, listed := class[f.Name]
		delete(class, f.Name)
		if listed || (whole && !isReference(f.Type.Kind())) {
			continue
		}
		out = append(out, fmt.Sprintf("%s.%s (%s) is neither in the state struct nor classified fixed or transient",
			typ, f.Name, f.Type))
	}
	if state != "" && !sawState {
		out = append(out, fmt.Sprintf("%s has no embedded %s", typ, state))
	}
	for n := range class {
		out = append(out, fmt.Sprintf("%s has no field %s", typ, n))
	}
	return out
}

func isReference(k reflect.Kind) bool {
	switch k {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.Func, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
		return true
	}
	return false
}

// TestRewindFieldAudit fails when a field joins a rewound type without
// a decision about how Reset treats it: every field must live in the
// type's state struct (captured and restored automatically) or be
// classified here as fixed after Build or transient.
func TestRewindFieldAudit(t *testing.T) {
	for _, a := range rewindAudit {
		for _, p := range auditProblems(a.typ, a.state, a.whole, a.fixed, a.transient) {
			t.Error(p)
		}
	}
}

// TestRewindFieldAuditRejects pins the audit's own failure modes.
func TestRewindFieldAuditRejects(t *testing.T) {
	type inner struct{ n int }
	type probe struct {
		inner
		cfg  int
		m    map[int]int
		hits uint64
	}
	typ := reflect.TypeOf(probe{})
	for _, tt := range []struct {
		name             string
		state            string
		whole            bool
		fixed, transient []string
		want             int
	}{
		{"complete", "inner", false, []string{"cfg", "m"}, []string{"hits"}, 0},
		{"unclassified field", "inner", false, []string{"cfg", "m"}, nil, 1},
		{"stale name", "inner", false, []string{"cfg", "m", "gone"}, []string{"hits"}, 1},
		{"listed twice", "inner", false, []string{"cfg", "m"}, []string{"hits", "cfg"}, 1},
		{"missing state struct", "", false, []string{"cfg", "m"}, []string{"hits"}, 1},
		{"whole copy needs reference fields only", "inner", true, []string{"m"}, nil, 0},
		{"whole copy with unclassified map", "inner", true, nil, nil, 1},
	} {
		if got := auditProblems(typ, tt.state, tt.whole, tt.fixed, tt.transient); len(got) != tt.want {
			t.Errorf("%s: %d problems %q, want %d", tt.name, len(got), got, tt.want)
		}
	}
}

// comparer deep-compares captured world state. It follows pointers
// (with a visited set, so cyclic structures such as the DNS cache's LRU
// list terminate), treats nil and empty slices and maps alike, treats
// two non-nil funcs as equal, and compares interface values by dynamic
// type only: interfaces in a checkpoint are wiring to other live
// components (resolver chains), which the field audit lists as fixed.
type comparer struct {
	seen map[[2]uintptr]bool
}

func (c *comparer) diff(path string, a, b reflect.Value) string {
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %s vs %s", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil"
			}
			return ""
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if c.seen[key] {
			return ""
		}
		c.seen[key] = true
		return c.diff(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil"
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf("%s: holds %s vs %s", path, a.Elem().Type(), b.Elem().Type())
		}
		return ""
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() {
			return path + ": nil vs non-nil"
		}
		return ""
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := c.diff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := c.diff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s: key %v missing", path, iter.Key())
			}
			if d := c.diff(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), bv); d != "" {
				return d
			}
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: cannot compare kind %s", path, a.Kind())
	}
	return ""
}

// stateDiff returns the first difference between two captured states,
// or "" when they are equal.
func stateDiff(a, b any) string {
	c := &comparer{seen: map[[2]uintptr]bool{}}
	return c.diff("checkpoint", reflect.ValueOf(a), reflect.ValueOf(b))
}

// TestComparerFindsDifferences pins the comparer's rules on small
// values, so a rewind test cannot pass because the comparer is blind.
func TestComparerFindsDifferences(t *testing.T) {
	type node struct {
		n    int
		next *node
		fn   func()
		r    any
		m    map[string][]int
	}
	mk := func(n int) *node {
		a := &node{n: n, fn: func() {}, r: 1, m: map[string][]int{"k": {n}}}
		a.next = a // a cycle
		return a
	}
	if d := stateDiff(mk(1), mk(1)); d != "" {
		t.Errorf("equal values differ: %s", d)
	}
	if d := stateDiff(mk(1), mk(2)); d == "" {
		t.Error("different ints compare equal")
	}
	a, b := mk(1), mk(1)
	b.fn = nil
	if d := stateDiff(a, b); d == "" {
		t.Error("nil vs non-nil func compares equal")
	}
	b = mk(1)
	b.r = "1"
	if d := stateDiff(a, b); d == "" {
		t.Error("interfaces of different dynamic types compare equal")
	}
	b = mk(1)
	b.m["k"] = append(b.m["k"], 0)
	if d := stateDiff(a, b); d == "" {
		t.Error("maps with different values compare equal")
	}
	b = mk(1)
	b.m = nil
	a.m = map[string][]int{}
	if d := stateDiff(a, b); d != "" {
		t.Errorf("nil and empty maps differ: %s", d)
	}
}

// driveWorld runs clients, browsing and a gateway reboot on a
// checkpointed world, browsing again after the reboot: everything Reset
// must then undo.
func driveWorld(t *testing.T, tb *testbed.Testbed) {
	t.Helper()
	profs := []hoststack.Behavior{profiles.IOS(), profiles.Windows10(), profiles.WindowsXP(), profiles.Android()}
	var clients []*hoststack.Host
	for i, b := range profs {
		name := fmt.Sprintf("rewind-%d", i)
		if tb.Fabric != nil {
			lo, _ := tb.Fabric.Rows(i % len(tb.Fabric.Switches))
			clients = append(clients, tb.Fabric.Materialize(lo, name, b))
		} else {
			clients = append(clients, tb.AddClient(name, b))
		}
	}
	browse := func() {
		for _, c := range clients {
			// Failures are fine (some profiles cannot reach every site,
			// and a pathology may break them); the state they leave is
			// the point.
			_, _ = httpsim.Browse(c, "http://sc24.supercomputing.org/")
			_, _ = httpsim.Browse(c, "http://"+testbed.StreamCDNName+"/flow/20000/1000/5")
		}
	}
	browse()
	tb.Gateway.Reboot()
	tb.Net.RunFor(30 * time.Second)
	browse()
	if tb.Fabric != nil {
		lo, _ := tb.Fabric.Rows(0)
		tb.Fabric.Park(lo)
	}
}

// TestCheckpointIndependentAndResetMatchesFreshBuild builds two worlds
// from one spec and checkpoints both. Running world A must leave its
// saved checkpoint equal to B's (a checkpoint shares nothing mutable
// with its world), and after Reset every component of A must capture
// exactly what B captures. B is reset too, without running: re-arming
// the RA beacons draws fresh timer sequence numbers, so any reset
// world's timer sequence runs two ahead of a fresh build's, with the
// same relative order.
func TestCheckpointIndependentAndResetMatchesFreshBuild(t *testing.T) {
	for _, tt := range []struct {
		name      string
		spec      testbed.Topology
		pathology string
		devices   int
	}{
		{"flat nat64-port-exhaustion", testbed.ScaleTopology(testbed.DefaultOptions(), 8), "nat64-port-exhaustion", 8},
		{"fabric 4x4", testbed.FabricTopology(testbed.DefaultOptions(), 4, 4), "", 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			build := func() *testbed.Testbed {
				tb, err := testbed.Build(tt.spec)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(tb.Close)
				if tt.pathology != "" {
					if err := pathology.ApplySized(tb, tt.pathology, tt.devices); err != nil {
						t.Fatal(err)
					}
				}
				if err := tb.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				return tb
			}
			a, b := build(), build()
			if d := stateDiff(a.SavedCheckpoint(), b.SavedCheckpoint()); d != "" {
				t.Fatalf("two fresh builds differ: %s", d)
			}
			before := a.Capture()
			driveWorld(t, a)
			if d := stateDiff(before, a.Capture()); d == "" {
				t.Fatal("driving world A changed none of its captured state")
			}
			if d := stateDiff(a.SavedCheckpoint(), b.SavedCheckpoint()); d != "" {
				t.Fatalf("running world A changed its saved checkpoint: %s", d)
			}
			if err := a.Reset(); err != nil {
				t.Fatal(err)
			}
			if err := b.Reset(); err != nil {
				t.Fatal(err)
			}
			if d := stateDiff(a.Capture(), b.Capture()); d != "" {
				t.Fatalf("after Reset, world A differs from a fresh build: %s", d)
			}
			if a.Fabric != nil {
				if d := stateDiff(a.Fabric.Table, b.Fabric.Table); d != "" {
					t.Fatalf("after Reset, the client table differs from a fresh build: %s", d)
				}
				if n := a.Fabric.ActiveCount(); n != 0 {
					t.Fatalf("after Reset, %d clients remain materialized", n)
				}
			}
		})
	}
}

// resolverCounters reads the resolver counters the experiments report.
func resolverCounters(tb *testbed.Testbed) map[string]uint64 {
	m := map[string]uint64{
		"Healthy64.Synthesized":    tb.Healthy64.Synthesized,
		"Healthy64.FlapSuppressed": tb.Healthy64.FlapSuppressed,
	}
	if tb.Wildcard != nil {
		m["Wildcard.Poisoned"] = tb.Wildcard.Poisoned
		m["Wildcard.Forwarded"] = tb.Wildcard.Forwarded
	}
	if tb.RPZ != nil {
		m["RPZ.Poisoned"] = tb.RPZ.Poisoned
		m["RPZ.Forwarded"] = tb.RPZ.Forwarded
		m["RPZ.PassedNXDomain"] = tb.RPZ.PassedNXDomain
	}
	return m
}

// TestResetRewindsResolverCounters runs a scenario on a checkpointed
// world and resets it: the DNS64 and poisoner counters must read what a
// fresh build reads, or a pooled run's Fig. 9 counts would include the
// previous run's queries.
func TestResetRewindsResolverCounters(t *testing.T) {
	for _, policy := range []testbed.PoisonPolicy{testbed.PoisonWildcard, testbed.PoisonRPZ} {
		opt := testbed.DefaultOptions()
		opt.Poison = policy
		spec := testbed.ScaleTopology(opt, 16)
		fresh, err := testbed.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := resolverCounters(fresh)
		fresh.Close()

		tb, err := testbed.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		scenario.RunWith(tb, scenario.Population(1, 16, scenario.DefaultMix()), scenario.RunOptions{})
		moved := 0
		for k, v := range resolverCounters(tb) {
			if v != want[k] {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("policy %d: the run moved no resolver counter", policy)
		}
		if err := tb.Reset(); err != nil {
			t.Fatal(err)
		}
		if got := resolverCounters(tb); !reflect.DeepEqual(got, want) {
			t.Errorf("policy %d: after Reset resolver counters %v, fresh build %v", policy, got, want)
		}
		tb.Close()
	}
}
