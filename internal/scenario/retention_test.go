package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/hoststack"
	"repro/internal/netsim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// scribbleHandler hands the host a private clone of every frame and
// overwrites the clone with 0xA5 once HandleFrame returns. Parsed
// packets are views into their frame, so any layer that keeps one past
// its handler reads the scribble later and the run diverges.
type scribbleHandler struct{ inner netsim.FrameHandler }

func (s scribbleHandler) HandleFrame(nic *netsim.NIC, f netsim.Frame) {
	c := f.Clone()
	s.inner.HandleFrame(nic, c)
	for i := range c.Payload {
		c.Payload[i] = 0xA5
	}
}

// runScribbled is RunWith on a clean-link world, except that each client
// is joined the way testbed.AddClient joins it with its NIC handler
// wrapped in scribbleHandler from the first frame on.
func runScribbled(tb *testbed.Testbed, devices []DeviceSpec, opt RunOptions) *Report {
	r := newTrialRunner(tb, opt)
	for _, spec := range devices {
		r.runTrial(spec, func() *hoststack.Host {
			c := hoststack.New(tb.Net, spec.Name, spec.Profile)
			c.NIC.SetHandler(scribbleHandler{c})
			tb.Switch.AttachPort(c.NIC)
			c.Start()
			tb.Net.RunFor(2 * time.Second)
			tb.Clients = append(tb.Clients, c)
			return c
		})
	}
	return r.finish()
}

// traceFrames digests every frame entering the world's switch.
func traceFrames(tb *testbed.Testbed) func() string {
	h := sha256.New()
	tb.Switch.AddFilter(func(port int, f netsim.Frame) bool {
		fmt.Fprintf(h, "p%02d %s\n", port, trace.Summarize(f))
		return true
	})
	return func() string { return hex.EncodeToString(h.Sum(nil)) }
}

// TestParsedViewsDoNotOutliveHandlers pins the packet-buffer ownership
// rule: a received frame's bytes may only be read while its handler
// runs. A flat world and a heavy-traffic world with reboot churn must
// produce the same report and the same switch frame trace whether or
// not every client's frames are scribbled over after delivery.
func TestParsedViewsDoNotOutliveHandlers(t *testing.T) {
	const n = 8
	regimes := []struct {
		name string
		run  RunOptions
	}{
		{name: "flat"},
		{name: "traffic-churn", run: RunOptions{
			RebootsPerDevice: 1,
			ConvergeTimeout:  30 * time.Second,
			Traffic: &TrafficOptions{
				FlowsPerDevice: 2,
				FlowBytes:      16 << 10,
				Pace:           time.Millisecond,
				ChurnFlows:     1,
			},
		}},
	}
	fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}
	devices := Population(3, n, DefaultMix())
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			run := func(scribble bool) (report, frames string) {
				tb, err := fac.Build()
				if err != nil {
					t.Fatal(err)
				}
				defer tb.Close()
				digest := traceFrames(tb)
				var rep *Report
				if scribble {
					rep = runScribbled(tb, devices, reg.run)
				} else {
					rep = RunWith(tb, devices, reg.run)
				}
				if rep.Joined != n || (reg.run.Traffic != nil && rep.Traffic.Flows.Completed == 0) {
					t.Fatalf("degenerate run: %d of %d joined, traffic %+v", rep.Joined, n, rep.Traffic)
				}
				return reportDigest(rep), digest()
			}
			wantRep, wantFrames := run(false)
			gotRep, gotFrames := run(true)
			if gotRep != wantRep {
				t.Errorf("report digest %s with scribbled frames, %s without", gotRep, wantRep)
			}
			if gotFrames != wantFrames {
				t.Errorf("frame trace digest %s with scribbled frames, %s without", gotFrames, wantFrames)
			}
		})
	}
}
