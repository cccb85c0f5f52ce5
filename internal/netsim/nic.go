package netsim

// NIC is a network interface endpoint: one side of a point-to-point link.
// Frames transmitted on a NIC are delivered to the peer NIC's handler
// after the link latency elapses on the virtual clock.
type NIC struct {
	net     *Network
	name    string
	mac     MAC
	peer    *NIC
	handler FrameHandler

	up bool

	// impair, when non-nil, subjects this NIC's traffic to fault
	// injection (see Impairment and SetImpairment).
	impair *impairState

	// Flood-interest declarations (see RestrictFlooding). managed is set
	// once the NIC opts in; switches suppress flooded frames the NIC has
	// not declared interest in. groups refcounts joined multicast MAC
	// groups (several IPv6 addresses can map onto one solicited-node
	// group, so joins and leaves must balance per address).
	managed  bool
	wantARP  bool
	wantIPv4 bool
	wantIPv6 bool
	groups   map[MAC]int

	// Per-link in-flight frame ring (see ring.go): pristine unicast
	// frames bound for this NIC queue here instead of the global event
	// heap, represented there by one drain event. Lazily allocated on
	// first use; ringDraining guards against re-arming the drain event
	// while drainRing is mid-batch.
	ring         []inflight
	ringHead     int
	ringCount    int
	ringDraining bool
}

// floodSubscriber is implemented by switch port handlers so a connected
// NIC's interest declarations reach the switch's per-port filter state
// after attachment (the simulator's equivalent of MLD/IGMP snooping
// state, without extra wire traffic).
type floodSubscriber interface {
	peerRestricted()
	peerEtherInterest(et uint16)
	peerJoinedGroup(g MAC)
	peerLeftGroup(g MAC)
}

// subscriber returns the peer-side flood subscriber, if any.
func (nc *NIC) subscriber() floodSubscriber {
	if nc.peer == nil {
		return nil
	}
	s, _ := nc.peer.handler.(floodSubscriber)
	return s
}

// RestrictFlooding declares that this NIC will register its flood
// interests explicitly: an attached switch thereafter suppresses flooded
// frames of EtherTypes the NIC has not added with AddEtherTypeInterest
// and IPv6 multicast groups it has not joined with JoinGroup. NICs that
// never call it receive every flooded frame (the safe default for
// devices such as routers that want promiscuous delivery). Suppression
// must only ever skip frames the owner would drop undelivered, so
// declaring exactly what the frame handler demuxes keeps behaviour
// bit-for-bit identical to an unrestricted NIC.
func (nc *NIC) RestrictFlooding() {
	if nc.managed {
		return
	}
	nc.managed = true
	if s := nc.subscriber(); s != nil {
		s.peerRestricted()
	}
}

// AddEtherTypeInterest registers interest in flooded frames of the given
// EtherType (ARP, IPv4 or IPv6). Interest is add-only: a host that once
// spoke a protocol keeps receiving its floods.
func (nc *NIC) AddEtherTypeInterest(et uint16) {
	switch et {
	case EtherTypeARP:
		if nc.wantARP {
			return
		}
		nc.wantARP = true
	case EtherTypeIPv4:
		if nc.wantIPv4 {
			return
		}
		nc.wantIPv4 = true
	case EtherTypeIPv6:
		if nc.wantIPv6 {
			return
		}
		nc.wantIPv6 = true
	default:
		return
	}
	if s := nc.subscriber(); s != nil {
		s.peerEtherInterest(et)
	}
}

// wantsEtherType reports whether a flooded frame of the given EtherType
// should reach this NIC (unrestricted NICs want everything).
func (nc *NIC) wantsEtherType(et uint16) bool {
	if !nc.managed {
		return true
	}
	switch et {
	case EtherTypeARP:
		return nc.wantARP
	case EtherTypeIPv4:
		return nc.wantIPv4
	case EtherTypeIPv6:
		return nc.wantIPv6
	}
	return false
}

// JoinGroup registers membership in a multicast MAC group (e.g. the
// all-nodes or a solicited-node 33:33:ff:… group). Joins are refcounted:
// every JoinGroup needs a matching LeaveGroup before membership lapses,
// because distinct IPv6 addresses may share one group MAC.
func (nc *NIC) JoinGroup(g MAC) {
	if nc.groups == nil {
		nc.groups = make(map[MAC]int)
	}
	nc.groups[g]++
	if nc.groups[g] == 1 {
		if s := nc.subscriber(); s != nil {
			s.peerJoinedGroup(g)
		}
	}
}

// LeaveGroup drops one reference on a multicast MAC group membership.
func (nc *NIC) LeaveGroup(g MAC) {
	if nc.groups == nil || nc.groups[g] == 0 {
		return
	}
	nc.groups[g]--
	if nc.groups[g] == 0 {
		delete(nc.groups, g)
		if s := nc.subscriber(); s != nil {
			s.peerLeftGroup(g)
		}
	}
}

// Name returns the interface name given at creation.
func (nc *NIC) Name() string { return nc.name }

// MAC returns the hardware address of the interface.
func (nc *NIC) MAC() MAC { return nc.mac }

// Network returns the fabric this NIC belongs to.
func (nc *NIC) Network() *Network { return nc.net }

// Connected reports whether the NIC has a link peer.
func (nc *NIC) Connected() bool { return nc.peer != nil }

// SetHandler replaces the frame handler (used when a device is built
// before its stack exists).
func (nc *NIC) SetHandler(h FrameHandler) { nc.handler = h }

// Transmit sends a frame out this interface. If Src is unset it is
// stamped with the NIC's own MAC. Delivery happens after the link latency.
// The payload is copied synchronously (into the fabric's arena), so the
// caller may reuse its buffer as soon as Transmit returns.
func (nc *NIC) Transmit(f Frame) {
	if f.Src.IsZero() {
		f.Src = nc.mac
	}
	peer := nc.peer
	if peer == nil {
		nc.net.dropped++
		return
	}
	// Fault injection, when attached: the sender's own impairment
	// covers all its frames via the tx stream; a pristine sender
	// delivering unicast *to* an impaired NIC consults that NIC's rx
	// stream. Broadcast/multicast toward an impaired receiver stays on
	// the fast path (see SetImpairment for why).
	if nc.impair != nil {
		nc.transmitImpaired(peer, f, nc.impair, &nc.impair.tx)
		return
	}
	if peer.impair != nil && f.Dst == peer.mac {
		nc.transmitImpaired(peer, f, peer.impair, &peer.impair.rx)
		return
	}
	p := nc.net.arena.alloc(len(f.Payload))
	copy(p, f.Payload)
	f.Payload = p
	f.Shared = false
	nc.net.scheduleFrameRing(peer, f)
}
