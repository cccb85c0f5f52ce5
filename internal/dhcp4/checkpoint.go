package dhcp4

import "maps"

// Checkpoint is an opaque deep copy of a Server's state (leases, in-use
// set, the global and per-domain allocation cursors, and counters),
// captured with Server.Checkpoint and restored with Server.Restore for
// testbed world reuse. The pool configuration is fixed after Build and
// is not captured.
type Checkpoint struct{ s state }

// Checkpoint deep-copies the server's state.
func (s *Server) Checkpoint() *Checkpoint { return &Checkpoint{s.state.clone()} }

// Restore rewinds the server to a previously captured Checkpoint.
func (s *Server) Restore(c *Checkpoint) { s.state = c.s.clone() }

// clone copies s with fresh tables; leases and per-domain cursors are
// held by pointer, so each is copied too.
func (s state) clone() state {
	c := s
	c.leases = make(map[[6]byte]*Lease, len(s.leases))
	for ch, l := range s.leases {
		cp := *l
		c.leases[ch] = &cp
	}
	c.inUse = maps.Clone(s.inUse)
	if s.domains != nil {
		c.domains = make(map[int]*domainState, len(s.domains))
		for d, ds := range s.domains {
			cp := *ds
			c.domains[d] = &cp
		}
	}
	return c
}
