package netsim

import "time"

// This file gives the fabric an explicit lifecycle. A Network is born
// running (NewNetwork), can be shut down for good (Stop), returned to a
// pristine pre-start state (Reset), or asked to settle in-flight work
// without following self-rearming beacons forever (Drain). The scenario
// engine leans on Stop to tear worlds down after a sharded run; tests
// lean on Reset to reuse one fabric across cases.

// Stop shuts the fabric down: every pending event and timer is
// discarded, and any further scheduling — frame transmission, timer
// arming, deferred callbacks — becomes a silent no-op. Devices stay
// attached and their state is preserved for inspection, but the world
// cannot make progress again until Reset. Stop is idempotent.
func (n *Network) Stop() {
	n.stopped = true
	n.queue = nil
	n.clearRings()
	n.Clock.purge()
}

// Stopped reports whether the fabric has been shut down with Stop.
func (n *Network) Stopped() bool { return n.stopped }

// Reset returns the fabric to its just-created state: pending events and
// timers are dropped, the hot-path counters are zeroed, exhausted arena
// chunks are recycled, and the virtual clock rewinds to the epoch. NICs
// remain cabled and the MAC allocator keeps its watermark, but any device state keyed to wall-clock time (leases,
// NAT sessions, RA lifetimes) is the owner's responsibility — Reset is
// meant for worlds about to be rebuilt or re-driven from scratch.
func (n *Network) Reset() {
	n.stopped = false
	n.queue = nil
	n.netState = netState{macs: n.macs}
	n.clearRings()
	n.arena.recycle()
	n.Clock.reset()
}

// Drain advances the fabric until it goes idle: it processes events and
// timers in order, stopping as soon as the next pending occurrence lies
// more than quiet beyond the current virtual time. With quiet shorter
// than the periodic beacon intervals (RAs re-arm every 10s) this settles
// all in-flight conversations and then returns, instead of chasing
// self-rearming timers forever like Run would. It returns the number of
// events processed.
func (n *Network) Drain(quiet time.Duration) int {
	ran := 0
	for ran < 1<<22 {
		if !n.step(n.Clock.Now().Add(quiet), true) {
			break
		}
		ran++
	}
	return ran
}
