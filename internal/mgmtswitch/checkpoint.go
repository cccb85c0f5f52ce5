package mgmtswitch

import "repro/internal/netsim"

// Checkpoint is an opaque copy of the managed switch's dynamic state:
// the embedded forwarding-plane snapshot plus the switch's own state
// (counters and pending ULA-beacon deadline). Captured with
// Switch.Checkpoint and restored with Switch.Restore for testbed world
// reuse.
type Checkpoint struct {
	plane *netsim.SwitchSnapshot
	s     state
}

// Checkpoint captures the switch's dynamic state.
func (s *Switch) Checkpoint() *Checkpoint {
	return &Checkpoint{s.Switch.Snapshot(), s.state.clone()}
}

// Restore rewinds the switch to a previously captured Checkpoint and,
// when the ULA beacon is enabled, re-arms it at its recorded deadline.
// The caller must have already rewound the network clock.
func (s *Switch) Restore(c *Checkpoint) {
	s.Switch.RestoreSnapshot(c.plane)
	s.state = c.s.clone()
	if s.cfg.AdvertiseULA {
		s.armRATimer(s.raNextAt.Sub(s.net.Clock.Now()))
	}
}

// clone returns a copy of s. Every field is a value, so the plain copy
// is already deep.
func (s state) clone() state { return s }
