package nat44

// Checkpoint is an opaque deep copy of a Translator's state plus the
// length of its append-only session Log, captured with
// Translator.Checkpoint and restored with Translator.Restore for
// testbed world reuse.
type Checkpoint struct {
	s      state
	logLen int
}

// Checkpoint deep-copies the translator's state. The Log is captured
// by length and truncated on restore rather than copied.
func (t *Translator) Checkpoint() *Checkpoint {
	return &Checkpoint{t.state.clone(), len(t.Log)}
}

// Restore rewinds the translator to a previously captured Checkpoint.
func (t *Translator) Restore(c *Checkpoint) {
	t.state = c.s.clone()
	t.Log = t.Log[:c.logLen]
}

// clone copies s with fresh session tables. The outbound and inbound
// tables alias the same *session values; the copy aliases its own
// clones the same way.
func (s state) clone() state {
	c := s
	c.outbound = make(map[key]*session, len(s.outbound))
	c.inbound = make(map[extKey]*session, len(s.inbound))
	dup := make(map[*session]*session, len(s.outbound))
	cloneOf := func(p *session) *session {
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
