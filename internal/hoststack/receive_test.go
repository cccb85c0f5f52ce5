package hoststack

import (
	"maps"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/dhcp4"
	"repro/internal/ndp"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// raView is the host state an RA can touch.
type raView struct {
	Routers []routerEntry
	V6Addrs []V6Addr
	RDNSS   []netip.Addr
	ND      map[netip.Addr]netsim.MAC
	Pref64  netip.Prefix
	Events  []string
}

func viewRA(h *Host) raView {
	return raView{
		Routers: append([]routerEntry(nil), h.routers...),
		V6Addrs: h.V6Addresses(),
		RDNSS:   h.RDNSS(),
		ND:      maps.Clone(h.ndCache),
		Pref64:  h.nat64Prefix,
		Events:  append([]string(nil), h.Events...),
	}
}

// raFloor is the Fig. 4 pair of advertisers as seen by one client: the
// 5G gateway's RA (SLAAC prefix, dead ULA RDNSS) and the low-preference
// intervention RA.
type raFloor struct {
	net            *netsim.Network
	client         *Host
	gw, interRtr   *raRouter
	gateway, inter netsim.Frame
}

func newRAFloor() *raFloor {
	net := netsim.NewNetwork()
	client := New(net, "client", Behavior{Name: "c", IPv6Enabled: true, SupportsRDNSS: true})
	gw := newRARouter(net, "gw", &ndp.RouterAdvert{
		RouterLifetime: 30 * time.Minute,
		Prefixes: []ndp.PrefixInfo{{
			Prefix: netip.MustParsePrefix("2607:fb90:9bda:a425::/64"),
			OnLink: true, Autonomous: true,
			ValidLifetime: 2 * time.Hour, PreferredLifetime: time.Hour,
		}},
		RDNSS:         []netip.Addr{netip.MustParseAddr("fd00:976a::9")},
		RDNSSLifetime: 30 * time.Minute,
	})
	inter := newRARouter(net, "intervention", &ndp.RouterAdvert{
		RouterLifetime: 30 * time.Minute, Preference: ndp.PrefLow,
		RDNSS:         []netip.Addr{netip.MustParseAddr("fd00:976a::53")},
		RDNSSLifetime: 30 * time.Minute,
	})
	return &raFloor{net: net, client: client, gw: gw, interRtr: inter, gateway: gw.frame(), inter: inter.frame()}
}

// expiringUnicastRA returns a gateway RA that SLAACs a short-lived
// address on fl's client (valid 3 s) and an intervention RA unicast to
// that address.
func (fl *raFloor) expiringUnicastRA() (short, unicast netsim.Frame) {
	prefix := netip.MustParsePrefix("2001:db8:1::/64")
	ra := *fl.gw.ra
	ra.Prefixes = []ndp.PrefixInfo{{
		Prefix: prefix, OnLink: true, Autonomous: true,
		ValidLifetime: 3 * time.Second, PreferredLifetime: 2 * time.Second,
	}}
	short = (&raRouter{host: fl.gw.host, ra: &ra}).frame()
	addr, _ := ndp.EUI64(prefix, fl.client.NIC.MAC())
	return short, fl.interRtr.frameTo(addr, fl.client.NIC.MAC())
}

// withPayload returns f carrying a private, edited copy of its payload.
func withPayload(f netsim.Frame, edit func([]byte)) netsim.Frame {
	f.Payload = append([]byte(nil), f.Payload...)
	edit(f.Payload)
	return f
}

// TestRAMemoMatchesFullPath delivers RA sequences to two identical
// floors: on one the host keeps its RA memo, on the other the memo is
// emptied before every frame, so each RA takes the full parse. Host
// state must agree after every frame, the expected frames must hit the
// memo, and a repeated receipt of memoized RAs must not allocate.
func TestRAMemoMatchesFullPath(t *testing.T) {
	// The ICMPv6 checksum sits at bytes 2-3 of the ICMPv6 header, after
	// the 40-byte IPv6 header; the router lifetime at bytes 6-7.
	flip := func(off int) func([]byte) { return func(b []byte) { b[off] ^= 0x01 } }
	tests := []struct {
		name string
		// frames is delivered one second apart after the gateway's RA
		// has been received (and memoized) once.
		frames   func(fl *raFloor) []netsim.Frame
		wantHits int
		wantMemo int
		// dropLast: the last frame must leave host state untouched.
		dropLast bool
	}{
		{
			name:     "same RA from the same router",
			frames:   func(fl *raFloor) []netsim.Frame { return []netsim.Frame{fl.gateway, fl.gateway, fl.gateway} },
			wantHits: 3, wantMemo: 1,
		},
		{
			name: "checksum byte flipped",
			frames: func(fl *raFloor) []netsim.Frame {
				return []netsim.Frame{withPayload(fl.gateway, flip(packet.IPv6HeaderLen+3))}
			},
			wantHits: 0, wantMemo: 1, dropLast: true,
		},
		{
			name: "router lifetime flipped without re-checksumming",
			frames: func(fl *raFloor) []netsim.Frame {
				return []netsim.Frame{withPayload(fl.gateway, flip(packet.IPv6HeaderLen+7))}
			},
			wantHits: 0, wantMemo: 1, dropLast: true,
		},
		{
			// The memoized unicast RA's destination expires (the gateway
			// RAs age the address list); its next repeat hits the memo
			// but must fail the destination check like a parsed one.
			name: "unicast RA to an expired address",
			frames: func(fl *raFloor) []netsim.Frame {
				short, unicast := fl.expiringUnicastRA()
				return []netsim.Frame{short, unicast, fl.gateway, fl.gateway, fl.gateway, unicast}
			},
			wantHits: 3, wantMemo: 2, dropLast: true,
		},
		{
			name: "two routers alternate",
			frames: func(fl *raFloor) []netsim.Frame {
				return []netsim.Frame{fl.inter, fl.gateway, fl.inter, fl.gateway, fl.inter}
			},
			wantHits: 4, wantMemo: 2,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			memo, full := newRAFloor(), newRAFloor()
			deliver := func(f netsim.Frame) (hit bool) {
				hit = memo.client.memoizedRA(f.Payload) != nil
				memo.client.HandleFrame(nil, f)
				full.client.raMemos = nil
				full.client.HandleFrame(nil, f)
				if got, want := viewRA(memo.client), viewRA(full.client); !reflect.DeepEqual(got, want) {
					t.Fatalf("memoized host diverged from the full path:\n got %+v\nwant %+v", got, want)
				}
				memo.net.RunFor(time.Second)
				full.net.RunFor(time.Second)
				return hit
			}
			if deliver(memo.gateway) {
				t.Fatal("first RA hit an empty memo")
			}
			frames := tt.frames(memo)
			var before raView
			hits := 0
			for _, f := range frames {
				before = viewRA(memo.client)
				if deliver(f) {
					hits++
				}
			}
			if hits != tt.wantHits {
				t.Errorf("memo hits = %d, want %d", hits, tt.wantHits)
			}
			if len(memo.client.raMemos) != tt.wantMemo {
				t.Errorf("memo entries = %d, want %d", len(memo.client.raMemos), tt.wantMemo)
			}
			if tt.dropLast {
				if got := viewRA(memo.client); !reflect.DeepEqual(got, before) {
					t.Errorf("dropped RA changed host state:\n got %+v\nwant %+v", got, before)
				}
				if memo.client.memoizedRA(memo.gateway.Payload) == nil {
					t.Error("dropped RA evicted the verified entry")
				}
				return
			}
			if raceEnabled {
				return
			}
			if allocs := testing.AllocsPerRun(100, func() {
				for _, f := range frames {
					memo.client.HandleFrame(nil, f)
				}
			}); allocs != 0 {
				t.Errorf("repeated RA receipt allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestForeignDHCPReplyRejectedBeforeParse delivers broadcast DHCPv4
// replies to a selecting client. Replies for another transaction or
// another client must be dropped by the fixed-offset peek — never
// reaching the port-68 handler and allocating nothing — while the
// client's own OFFER and ACK still bind it.
func TestForeignDHCPReplyRejectedBeforeParse(t *testing.T) {
	serverID := netip.MustParseAddr("192.168.12.250")
	offered := netip.MustParseAddr("192.168.12.100")
	reply := func(typ uint8, edit func(m *dhcp4.Message)) func(c *Host) netsim.Frame {
		return func(c *Host) netsim.Frame {
			m := dhcp4.NewMessage(dhcp4.OpReply, c.dhcp.xid, c.NIC.MAC())
			m.SetType(typ)
			m.Broadcast = true
			m.YIAddr = offered
			m.SetIPv4Option(dhcp4.OptServerID, serverID)
			m.SetIPv4Option(dhcp4.OptSubnetMask, netip.MustParseAddr("255.255.255.0"))
			if edit != nil {
				edit(m)
			}
			u := &packet.UDP{SrcPort: dhcp4.ServerPort, DstPort: dhcp4.ClientPort, Payload: m.Marshal()}
			p := &packet.IPv4{
				Protocol: packet.ProtoUDP, TTL: 64, Src: serverID, Dst: v4LimitedBroadcast,
				Payload: u.Marshal(serverID, v4LimitedBroadcast),
			}
			return netsim.Frame{Dst: netsim.Broadcast, EtherType: netsim.EtherTypeIPv4, Payload: p.Marshal()}
		}
	}
	tests := []struct {
		name        string
		replies     []func(c *Host) netsim.Frame
		wantHandled int
		wantState   string
		wantAddr    netip.Addr
	}{
		{
			name:    "offer for another client's xid",
			replies: []func(*Host) netsim.Frame{reply(dhcp4.Offer, func(m *dhcp4.Message) { m.XID++ })},
			// The foreign reply never reaches the handler.
			wantHandled: 0, wantState: "selecting",
		},
		{
			name:        "offer for another client's chaddr",
			replies:     []func(*Host) netsim.Frame{reply(dhcp4.Offer, func(m *dhcp4.Message) { m.CHAddr[5]++ })},
			wantHandled: 0, wantState: "selecting",
		},
		{
			name:        "BOOTREQUEST on the client port",
			replies:     []func(*Host) netsim.Frame{reply(dhcp4.Offer, func(m *dhcp4.Message) { m.Op = dhcp4.OpRequest })},
			wantHandled: 0, wantState: "selecting",
		},
		{
			name:        "matching offer and ack bind",
			replies:     []func(*Host) netsim.Frame{reply(dhcp4.Offer, nil), reply(dhcp4.ACK, nil)},
			wantHandled: 2, wantState: "bound", wantAddr: offered,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			net := netsim.NewNetwork()
			c := New(net, "pc", Behavior{Name: "pc", IPv4Enabled: true})
			lanWith(net, c)
			c.Start()
			handled := 0
			inner := c.udpBind[dhcp4.ClientPort]
			c.udpBind[dhcp4.ClientPort] = func(src netip.Addr, sport uint16, dst netip.Addr, payload []byte) {
				handled++
				inner(src, sport, dst, payload)
			}
			for _, r := range tt.replies {
				c.HandleFrame(nil, r(c))
			}
			if handled != tt.wantHandled {
				t.Errorf("handler ran %d times, want %d", handled, tt.wantHandled)
			}
			if c.dhcp.state != tt.wantState || c.IPv4Addr() != tt.wantAddr {
				t.Errorf("dhcp state %q addr %v, want %q %v", c.dhcp.state, c.IPv4Addr(), tt.wantState, tt.wantAddr)
			}
			if tt.wantHandled > 0 || raceEnabled {
				return
			}
			f := tt.replies[0](c)
			if allocs := testing.AllocsPerRun(100, func() { c.HandleFrame(nil, f) }); allocs != 0 {
				t.Errorf("foreign reply allocates %.1f objects, want 0", allocs)
			}
		})
	}
}
