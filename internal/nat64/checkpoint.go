package nat64

// Checkpoint is an opaque deep copy of a Translator's state, captured
// with Translator.Checkpoint and restored with Translator.Restore. It
// backs testbed world reuse: a pooled world rewinds its translator to
// the exact post-Build state instead of rebuilding the whole topology.
type Checkpoint struct{ s state }

// Checkpoint deep-copies the translator's state.
func (t *Translator) Checkpoint() *Checkpoint { return &Checkpoint{t.state.clone()} }

// Restore rewinds the translator to a previously captured Checkpoint.
func (t *Translator) Restore(c *Checkpoint) { t.state = c.s.clone() }

// clone copies s with fresh session tables. The outbound and inbound
// tables alias the same *Session values; the copy aliases its own
// clones the same way.
func (s state) clone() state {
	c := s
	c.outbound = make(map[mapKey]*Session, len(s.outbound))
	c.inbound = make(map[extKey]*Session, len(s.inbound))
	dup := make(map[*Session]*Session, len(s.outbound))
	cloneOf := func(p *Session) *Session {
		if q, ok := dup[p]; ok {
			return q
		}
		q := *p
		dup[p] = &q
		return &q
	}
	for k, p := range s.outbound {
		c.outbound[k] = cloneOf(p)
	}
	for k, p := range s.inbound {
		c.inbound[k] = cloneOf(p)
	}
	return c
}
