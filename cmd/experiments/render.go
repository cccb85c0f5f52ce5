package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// This file renders sweep cells (scenario.Sweep) as the fixed-width
// matrices of the chaos and pathology experiments. Every value is a
// counter or a virtual-clock duration, so each text is byte-reproducible
// and pinned verbatim in EXPERIMENTS.md (TestExperimentsBlocksPinned).

// degradationMatrix renders a loss × reboots sweep: one line per cell,
// then the per-class re-convergence detail of every churned cell.
func degradationMatrix(seed int64, cells []scenario.Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "degradation matrix: n=%d devices per cell, seed %d\n", cells[0].N, seed)
	fmt.Fprintf(&b, "%-6s %8s %10s %10s %12s %14s\n",
		"loss", "reboots", "internet", "informed", "reconverged", "worst-converge")
	for _, c := range cells {
		probed, recon, worst := 0, 0, time.Duration(0)
		for _, cc := range c.Report.Convergence {
			probed += cc.Devices
			recon += cc.Reconverged
			worst = max(worst, cc.MaxTime)
		}
		conv, worstStr := "-", "-"
		if c.Reboots > 0 {
			conv = fmt.Sprintf("%d/%d", recon, probed)
			worstStr = worst.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%5.0f%% %8d %10d %10d %12s %14s\n",
			c.Loss*100, c.Reboots, c.Report.InternetOK, c.Report.Informed, conv, worstStr)
	}

	b.WriteString("\nper-class re-convergence after gateway reboots:\n")
	for _, c := range cells {
		if c.Reboots == 0 || len(c.Report.Convergence) == 0 {
			continue
		}
		fmt.Fprintf(&b, "loss=%.0f%% reboots=%d:\n", c.Loss*100, c.Reboots)
		classes := make([]string, 0, len(c.Report.Convergence))
		for cls := range c.Report.Convergence {
			classes = append(classes, string(cls))
		}
		sort.Strings(classes)
		for _, cls := range classes {
			cc := c.Report.Convergence[metrics.Class(cls)]
			mean := time.Duration(0)
			if cc.Reconverged > 0 {
				mean = cc.TotalTime / time.Duration(cc.Reconverged)
			}
			fmt.Fprintf(&b, "  %-10s %2d/%2d reconverged, mean %v, worst %v\n",
				cls, cc.Reconverged, cc.Devices,
				mean.Round(time.Millisecond), cc.MaxTime.Round(time.Millisecond))
		}
	}
	return b.String()
}

// pathologyMatrix renders a pathology sweep: one line per cell, each
// profile column internet-ok/devices for that profile. Profiles fold
// incrementally during a run, so the matrix needs no per-device rows.
func pathologyMatrix(seed int64, cells []scenario.Cell) string {
	var profiles []string
	for _, e := range scenario.DefaultMix() {
		if !slices.Contains(profiles, e.Profile.Name) {
			profiles = append(profiles, e.Profile.Name)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "pathology degradation matrix: n=%d devices per cell, seed %d (internet-ok/devices per profile)\n", cells[0].N, seed)
	fmt.Fprintf(&b, "%-26s %8s %9s", "pathology", "internet", "informed")
	for _, p := range profiles {
		abbrev, ok := profileAbbrev[p]
		if !ok {
			abbrev = p
		}
		fmt.Fprintf(&b, " %6s", abbrev)
	}
	b.WriteByte('\n')
	for _, c := range cells {
		fmt.Fprintf(&b, "%-26s %8d %9d", c.Pathology, c.Report.InternetOK, c.Report.Informed)
		for _, p := range profiles {
			pc := c.Report.Profiles[p]
			fmt.Fprintf(&b, " %6s", fmt.Sprintf("%d/%d", pc.InternetOK, pc.Devices))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// profileAbbrev is the pathology matrix's column header for each
// DefaultMix profile; any other profile is headed by its full name.
var profileAbbrev = map[string]string{
	"iOS": "iOS", "Android": "Andr", "macOS": "mac", "Windows 10": "W10", "Windows 11": "W11",
	"Linux": "Lnx", "Nintendo Switch": "NSw", "Windows XP": "XP",
}
