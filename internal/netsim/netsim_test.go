package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

type collector struct {
	frames []Frame
}

func (c *collector) HandleFrame(_ *NIC, f Frame) { c.frames = append(c.frames, f) }

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x00, 0x5e, 0x00, 0x00, 0x01}
	if got, want := m.String(), "02:00:5e:00:00:01"; got != want {
		t.Errorf("MAC.String() = %q, want %q", got, want)
	}
}

func TestMACPredicates(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Error("broadcast should be broadcast and multicast")
	}
	m := MAC{0x33, 0x33, 0, 0, 0, 1} // IPv6 multicast MAC prefix
	if !m.IsMulticast() || m.IsBroadcast() {
		t.Error("33:33::1 should be multicast, not broadcast")
	}
	var z MAC
	if !z.IsZero() {
		t.Error("zero MAC should report IsZero")
	}
}

func TestMACAllocatorUnique(t *testing.T) {
	var a MACAllocator
	seen := make(map[MAC]bool)
	for i := 0; i < 1000; i++ {
		m := a.Next()
		if seen[m] {
			t.Fatalf("duplicate MAC %v at iteration %d", m, i)
		}
		if m.IsMulticast() {
			t.Fatalf("allocated multicast MAC %v", m)
		}
		seen[m] = true
	}
}

func TestPointToPointDelivery(t *testing.T) {
	net := NewNetwork()
	var got collector
	a := net.NewNIC("a", nil)
	b := net.NewNIC("b", &got)
	net.Connect(a, b)

	a.Transmit(Frame{Dst: b.MAC(), EtherType: EtherTypeIPv4, Payload: []byte("hello")})
	net.Run(0)

	if len(got.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got.frames))
	}
	f := got.frames[0]
	if f.Src != a.MAC() {
		t.Errorf("frame Src = %v, want %v (auto-stamped)", f.Src, a.MAC())
	}
	if string(f.Payload) != "hello" {
		t.Errorf("payload = %q, want %q", f.Payload, "hello")
	}
}

func TestTransmitOnUnconnectedNICDrops(t *testing.T) {
	net := NewNetwork()
	a := net.NewNIC("a", nil)
	a.Transmit(Frame{Dst: Broadcast})
	net.Run(0)
	if net.FramesDropped() != 1 {
		t.Errorf("FramesDropped = %d, want 1", net.FramesDropped())
	}
}

func TestFrameCloneIsolation(t *testing.T) {
	net := NewNetwork()
	var got collector
	a := net.NewNIC("a", nil)
	b := net.NewNIC("b", &got)
	net.Connect(a, b)

	payload := []byte("mutable")
	a.Transmit(Frame{Dst: b.MAC(), Payload: payload})
	payload[0] = 'X' // sender mutates after transmit
	net.Run(0)

	if string(got.frames[0].Payload) != "mutable" {
		t.Errorf("receiver saw mutated payload %q", got.frames[0].Payload)
	}
}

func TestVirtualClockAdvancesWithLatency(t *testing.T) {
	net := NewNetwork()
	a := net.NewNIC("a", nil)
	b := net.NewNIC("b", &collector{})
	net.Connect(a, b)

	start := net.Clock.Now()
	a.Transmit(Frame{Dst: b.MAC()})
	net.Run(0)
	if got := net.Clock.Now().Sub(start); got != DefaultLinkLatency {
		t.Errorf("clock advanced %v, want %v", got, DefaultLinkLatency)
	}
}

func TestTimerOrdering(t *testing.T) {
	net := NewNetwork()
	var order []int
	net.Clock.AfterFunc(3*time.Millisecond, func() { order = append(order, 3) })
	net.Clock.AfterFunc(1*time.Millisecond, func() { order = append(order, 1) })
	net.Clock.AfterFunc(2*time.Millisecond, func() { order = append(order, 2) })
	net.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("timer order = %v, want [1 2 3]", order)
	}
}

func TestTimerStop(t *testing.T) {
	net := NewNetwork()
	fired := false
	tm := net.Clock.AfterFunc(time.Millisecond, func() { fired = true })
	tm.Stop()
	net.Run(0)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestSameDeadlineTimersFIFO(t *testing.T) {
	net := NewNetwork()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		net.Clock.AfterFunc(time.Millisecond, func() { order = append(order, i) })
	}
	net.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline order = %v, want FIFO", order)
		}
	}
}

func TestRunForBoundsPeriodicTimer(t *testing.T) {
	net := NewNetwork()
	count := 0
	var rearm func()
	rearm = func() {
		count++
		net.Clock.AfterFunc(time.Second, rearm)
	}
	net.Clock.AfterFunc(time.Second, rearm)
	net.RunFor(10*time.Second + time.Millisecond)
	if count != 10 {
		t.Errorf("periodic timer fired %d times in 10s window, want 10", count)
	}
}

func TestRunUntilPredicate(t *testing.T) {
	net := NewNetwork()
	hits := 0
	var rearm func()
	rearm = func() {
		hits++
		net.Clock.AfterFunc(time.Second, rearm)
	}
	net.Clock.AfterFunc(time.Second, rearm)
	ok := net.RunUntil(func() bool { return hits >= 3 }, time.Minute)
	if !ok || hits != 3 {
		t.Errorf("RunUntil: ok=%v hits=%d, want true/3", ok, hits)
	}
}

func TestSwitchLearningAndFlooding(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net, "sw")
	var ca, cb, cc collector
	a := net.NewNIC("a", &ca)
	b := net.NewNIC("b", &cb)
	c := net.NewNIC("c", &cc)
	sw.AttachPort(a)
	sw.AttachPort(b)
	sw.AttachPort(c)

	// First frame a->b: dst unknown, floods to b and c.
	a.Transmit(Frame{Dst: b.MAC(), Payload: []byte("1")})
	net.Run(0)
	if len(cb.frames) != 1 || len(cc.frames) != 1 {
		t.Fatalf("flood: b got %d, c got %d, want 1/1", len(cb.frames), len(cc.frames))
	}

	// b replies: switch has learned a, so only a receives it.
	b.Transmit(Frame{Dst: a.MAC(), Payload: []byte("2")})
	net.Run(0)
	if len(ca.frames) != 1 {
		t.Fatalf("a got %d frames, want 1", len(ca.frames))
	}
	if len(cc.frames) != 1 {
		t.Fatalf("c got %d frames, want still 1 (no flood after learning)", len(cc.frames))
	}

	// Now a->b is learned: unicast only to b.
	a.Transmit(Frame{Dst: b.MAC(), Payload: []byte("3")})
	net.Run(0)
	if len(cb.frames) != 2 || len(cc.frames) != 1 {
		t.Fatalf("after learning: b=%d c=%d, want 2/1", len(cb.frames), len(cc.frames))
	}
}

func TestSwitchBroadcastReachesAllButIngress(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net, "sw")
	var ca, cb, cc collector
	a := net.NewNIC("a", &ca)
	b := net.NewNIC("b", &cb)
	c := net.NewNIC("c", &cc)
	sw.AttachPort(a)
	sw.AttachPort(b)
	sw.AttachPort(c)

	a.Transmit(Frame{Dst: Broadcast, Payload: []byte("bcast")})
	net.Run(0)
	if len(ca.frames) != 0 {
		t.Errorf("sender received its own broadcast")
	}
	if len(cb.frames) != 1 || len(cc.frames) != 1 {
		t.Errorf("broadcast: b=%d c=%d, want 1/1", len(cb.frames), len(cc.frames))
	}
}

func TestSwitchFilterDropsFrames(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net, "sw")
	var cb collector
	a := net.NewNIC("a", nil)
	b := net.NewNIC("b", &cb)
	pa := sw.AttachPort(a)
	sw.AttachPort(b)

	sw.AddFilter(func(port int, f Frame) bool { return port != pa })

	a.Transmit(Frame{Dst: b.MAC(), Payload: []byte("blocked")})
	net.Run(0)
	if len(cb.frames) != 0 {
		t.Fatalf("filtered frame was delivered")
	}
	if st := sw.Stats(); st.Filtered != 1 {
		t.Errorf("filtered count = %d, want 1", st.Filtered)
	}
}

func TestSwitchInjectAll(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net, "sw")
	var ca, cb collector
	a := net.NewNIC("a", &ca)
	b := net.NewNIC("b", &cb)
	sw.AttachPort(a)
	sw.AttachPort(b)

	src := net.AllocMAC()
	sw.InjectAll(Frame{Src: src, Dst: Broadcast, Payload: []byte("ra")})
	net.Run(0)
	if len(ca.frames) != 1 || len(cb.frames) != 1 {
		t.Errorf("InjectAll: a=%d b=%d, want 1/1", len(ca.frames), len(cb.frames))
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", 1234567: "1234567"}
	for n, want := range cases {
		if got := itoa(n); got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}

// Property: MAC allocation never repeats and is always unicast,
// locally administered.
func TestMACAllocatorProperties(t *testing.T) {
	f := func(n uint8) bool {
		var a MACAllocator
		prev := make(map[MAC]bool)
		for i := 0; i < int(n)+1; i++ {
			m := a.Next()
			if prev[m] || m.IsMulticast() || m[0]&0x02 == 0 {
				return false
			}
			prev[m] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
