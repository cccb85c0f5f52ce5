package gateway5g

import (
	"maps"

	"repro/internal/dhcp4"
	"repro/internal/nat44"
	"repro/internal/nat64"
)

// Checkpoint is an opaque deep copy of the gateway's dynamic state —
// its own state plus the DHCP/NAT44/NAT64 component checkpoints —
// captured with Gateway.Checkpoint and restored with Gateway.Restore
// for testbed world reuse. The raDown pathology gate is configuration
// wired at install time and deliberately not captured: gates are pure
// functions of the virtual clock, so restoring the clock restores their
// phase.
type Checkpoint struct {
	s     state
	dhcp  *dhcp4.Checkpoint
	nat44 *nat44.Checkpoint
	nat64 *nat64.Checkpoint
}

// Checkpoint deep-copies the gateway's dynamic state, including its
// built-in DHCP server and both translators.
func (g *Gateway) Checkpoint() *Checkpoint {
	return &Checkpoint{g.state.clone(), g.DHCP.Checkpoint(), g.NAT44.Checkpoint(), g.NAT64.Checkpoint()}
}

// Restore rewinds the gateway to a previously captured Checkpoint and
// re-arms the RA beacon at its recorded deadline. The caller must have
// already rewound the network clock (netsim.Network.ResetTo), which
// dropped the old beacon timer.
func (g *Gateway) Restore(c *Checkpoint) {
	g.state = c.s.clone()
	g.DHCP.Restore(c.dhcp)
	g.NAT44.Restore(c.nat44)
	g.NAT64.Restore(c.nat64)
	g.armRATimer(g.raNextAt.Sub(g.net.Clock.Now()))
}

// clone copies s with fresh neighbor caches.
func (s state) clone() state {
	c := s
	c.arp = maps.Clone(s.arp)
	c.nd = maps.Clone(s.nd)
	return c
}
