package testbed

import (
	"time"
)

// ChurnSpec schedules gateway reboots at absolute virtual times after
// the world settles, modeling the deployment's overnight gateway power
// cycles. Each reboot drops every DHCP lease and all NAT64/NAT44 state,
// renumbers the LAN to the next GUA /64 and re-beacons RAs that
// deprecate the old prefix (see gateway5g.Reboot). Clients recover via
// the host stack's retransmission and renumbering paths; the
// reboot-churn regression test bounds how long that takes.
//
// Absolute-time churn perturbs every client that is up when the reboot
// fires, so it is deliberately NOT used by the scenario engine's chaos
// runs, whose reboots must be per-device trials to keep shard merges
// exact (see scenario.RunOptions.RebootsPerDevice); it serves
// whole-world experiments and tests.
type ChurnSpec struct {
	// FirstReboot is the virtual delay after settle before the first
	// reboot (defaults to Every when zero).
	FirstReboot time.Duration
	// Every is the interval between subsequent reboots (defaults to
	// FirstReboot when zero).
	Every time.Duration
	// Count is the total number of reboots; zero disables churn.
	Count int
}

// Enabled reports whether the spec schedules at least one reboot.
func (c ChurnSpec) Enabled() bool {
	return c.Count > 0 && (c.FirstReboot > 0 || c.Every > 0)
}

// scheduleChurn arms the reboot timers on the world's virtual clock.
// Timers self-rearm until Count reboots have fired, then stop, so a
// drained event loop never spins on churn.
func (tb *Testbed) scheduleChurn(c ChurnSpec) {
	if !c.Enabled() {
		return
	}
	first, every := c.FirstReboot, c.Every
	if first == 0 {
		first = every
	}
	if every == 0 {
		every = first
	}
	fired := 0
	var fire func()
	fire = func() {
		tb.Gateway.Reboot()
		fired++
		if fired < c.Count {
			tb.Net.Clock.AfterFunc(every, fire)
		}
	}
	tb.Net.Clock.AfterFunc(first, fire)
}

// chaosSeed derives a client's impairment seed from the topology's base
// ChaosSeed and the client's name alone — never from MAC assignment or
// attach order — so the client's loss/jitter/duplication draws are
// byte-identical whether it runs serially or inside any shard. The name
// hash is FNV-1a; the combination is finalized with the same splitmix64
// mixer the scenario engine uses for per-shard seeds.
func chaosSeed(base uint64, name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	z := base + 0x9e3779b97f4a7c15*h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
