package testbed

import (
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/profiles"
)

// TestBuildSparseSpecMatchesNew proves the compatibility contract: a
// zero spec with only Opt set builds the exact world New does. Frame
// counts after an identical client workload are a strong proxy for
// bit-identical behaviour on the deterministic fabric.
func TestBuildSparseSpecMatchesNew(t *testing.T) {
	legacy := New(DefaultOptions())
	built, err := Build(Topology{Opt: DefaultOptions()})
	if err != nil {
		t.Fatalf("Build(sparse spec): %v", err)
	}

	lc := legacy.AddClient("probe", profiles.MacOS())
	bc := built.AddClient("probe", profiles.MacOS())

	if got, want := built.Net.FramesDelivered(), legacy.Net.FramesDelivered(); got != want {
		t.Errorf("frames delivered diverged: Build=%d New=%d", got, want)
	}
	if got, want := len(bc.IPv6GlobalAddrs()) > 0, len(lc.IPv6GlobalAddrs()) > 0; got != want {
		t.Errorf("client GUA presence diverged: Build=%v New=%v", got, want)
	}
	if !built.Net.Clock.Now().Equal(legacy.Net.Clock.Now()) {
		t.Errorf("virtual clocks diverged: Build=%v New=%v",
			built.Net.Clock.Now(), legacy.Net.Clock.Now())
	}
}

func TestBuildRejectsIncoherentSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
		want string
	}{
		{"gateway outside LAN", func(s *Topology) {
			s.GatewayLANv4 = netip.MustParseAddr("10.0.0.1")
		}, "outside LAN"},
		{"inverted pi pool", func(s *Topology) {
			s.Pis.PoolStart = netip.MustParseAddr("192.168.12.199")
			s.Pis.PoolEnd = netip.MustParseAddr("192.168.12.100")
		}, "inverted"},
		{"pool outside LAN", func(s *Topology) {
			s.Pis.PoolStart = netip.MustParseAddr("172.16.0.1")
			s.Pis.PoolEnd = netip.MustParseAddr("172.16.0.50")
		}, "outside LAN"},
		{"pi outside LAN", func(s *Topology) {
			s.Pis.PoisonV4 = netip.MustParseAddr("172.16.0.53")
		}, "outside LAN"},
		{"nameless site", func(s *Topology) {
			s.Sites = append(s.Sites, SiteSpec{V4: netip.MustParseAddr("198.51.100.99")})
		}, "empty name"},
		{"addressless site", func(s *Topology) {
			s.Sites = append(s.Sites, SiteSpec{Name: "nowhere.example"})
		}, "no address"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := DefaultTopology(DefaultOptions())
			tc.mut(&spec)
			tb, err := Build(spec)
			if err == nil {
				t.Fatalf("Build accepted an incoherent spec, got world %p", tb)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCloseFreezesWorld(t *testing.T) {
	tb, err := Build(DefaultTopology(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	tb.Close()

	before := tb.Net.FramesDelivered()
	c := tb.AddClient("late", profiles.MacOS())
	if got := tb.Net.FramesDelivered(); got != before {
		t.Errorf("closed world delivered %d new frames", got-before)
	}
	if len(c.IPv6GlobalAddrs()) > 0 || c.IPv4Addr().IsValid() {
		t.Error("client configured itself on a closed world")
	}
	tb.Close() // idempotent
}

// TestSnapshotFactoryBuildsIndependentTwins pins what the scenario
// engine relies on when it builds shard worlds: rebuilding a world from
// its recorded Spec yields deterministic, fully independent twins.
func TestSnapshotFactoryBuildsIndependentTwins(t *testing.T) {
	spec := ScaleTopology(DefaultOptions(), 50)
	tb, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}

	twinA, err := Build(tb.Spec)
	if err != nil {
		t.Fatalf("build A: %v", err)
	}
	twinB, err := Build(tb.Spec)
	if err != nil {
		t.Fatalf("build B: %v", err)
	}
	// Twins are deterministic copies of each other...
	if a, b := twinA.Net.FramesDelivered(), twinB.Net.FramesDelivered(); a != b {
		t.Errorf("twin worlds diverged at birth: %d vs %d frames", a, b)
	}
	// ...and fully independent: closing one leaves the other running.
	twinA.Close()
	cb := twinB.AddClient("after-close", profiles.MacOS())
	if len(cb.IPv6GlobalAddrs()) == 0 {
		t.Error("surviving twin failed to bring a client up")
	}
}

// TestScaleTopologyDecouplesDevices checks the scale spec's promise:
// pools and lifetimes sized so devices cannot interfere.
func TestScaleTopologyDecouplesDevices(t *testing.T) {
	spec := ScaleTopology(DefaultOptions(), 1000)
	if spec.LANPrefix.Bits() != 16 {
		t.Errorf("LAN prefix /%d, want /16", spec.LANPrefix.Bits())
	}
	if !spec.LANPrefix.Contains(spec.Pis.PoolStart) || !spec.LANPrefix.Contains(spec.Pis.PoolEnd) {
		t.Error("pi pool escaped the LAN")
	}
	if spec.Gateway.NAT64TCPTransTimeout < 1000*time.Hour {
		t.Errorf("NAT64 TCP_TRANS %v too short for position independence", spec.Gateway.NAT64TCPTransTimeout)
	}
	if _, err := Build(spec); err != nil {
		t.Fatalf("scale spec does not build: %v", err)
	}
}

// TestSwitchableResolverConcurrentSwap exercises the rollback race the
// sharded engine exposes: Resolve on one goroutine while the
// intervention flips on another. Run under -race this fails loudly if
// the swap is not atomic.
func TestSwitchableResolverConcurrentSwap(t *testing.T) {
	tb := New(DefaultOptions())
	q := dnswire.Question{Name: "sc24.supercomputing.org.", Type: dnswire.TypeA}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tb.poisonSwitch.Resolve(q); err != nil {
					t.Errorf("Resolve: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		tb.RollBackIntervention()
		tb.ReinstateIntervention()
	}
	close(stop)
	wg.Wait()
}
