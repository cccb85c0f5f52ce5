package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// This file is the correctness oracle. A pass is summarised by the
// fields the determinism contract covers: one hash per device row,
// keyed by device name and blind to the shard index and trial position
// (so serial, sharded and pooled runs compare directly), plus the
// report's aggregates without HealthyQueries (its count depends on which
// devices share a healthy-resolver cache), the traffic report's live
// session levels (see writeAggregates) and Shards (the partition
// itself). Rows are compared one by one against a fresh-build, unpooled
// serial run of the same seed; for seed 1 at full size that run's digest
// must also equal the value pinned below.

// pinnedDigests are the seed-1, full-size oracle digests of each
// workload. A change that alters any simulated outcome changes them.
var pinnedDigests = map[string]string{
	"flat-floor":     "d0890a2bdb348421f7ab044e1673bebf15389d247dbbe1e478db9019d721bd93",
	"fabric-million": "d044b94b48ee979acb1ea0859b06e67c3d31a1c6a4061275bac1df94680ac410",
	"traffic-churn":  "9fdfe0ec26bee18e1f7a96080d754f274ae2f3ca23b3d572cee21443c44b758d",
}

// rowKey is one device row reduced to its name and contract hash.
type rowKey struct {
	name string
	hash uint64
}

// rowHash hashes the contract fields of a row with FNV-1a into buf's
// scratch space (no allocation once buf has grown).
func rowHash(buf *[]byte, r *scenario.Row) uint64 {
	b := (*buf)[:0]
	b = append(b, r.Spec.Name...)
	b = append(b, 0)
	b = append(b, r.Spec.Profile.Name...)
	b = append(b, 0)
	b = append(b, string(r.Class)...)
	b = append(b, 0)
	for _, f := range []bool{r.Spec.EcholinkOnly, r.Informed, r.Internet, r.UsedIPv6, r.Churned, r.Reconverged} {
		if f {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, v := range []int64{int64(r.ConvergeTime), int64(r.Flows.Opened), int64(r.Flows.Completed),
		int64(r.Flows.Aborted), r.Flows.BytesUp, r.Flows.BytesDown} {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, 0)
	}
	*buf = b
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// sortRows orders rows by device name, the contract's key.
func sortRows(rows []rowKey) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
}

// rowMismatches counts the rows of got (sorted) that disagree with want
// (sorted): a different hash, a name want lacks, a repeated name, or a
// device of want that produced no row.
func rowMismatches(got, want []rowKey) int {
	bad, i, j := 0, 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || (i < len(got) && got[i].name < want[j].name):
			bad++ // a row for a device the oracle never ran, or a repeat
			i++
		case i == len(got) || want[j].name < got[i].name:
			bad++ // a device that produced no row
			j++
		default:
			if got[i].hash != want[j].hash {
				bad++
			}
			i++
			j++
		}
	}
	return bad
}

// aggregateDigest hashes the report aggregates the contract covers.
func aggregateDigest(rep *scenario.Report) string {
	h := sha256.New()
	writeAggregates(h, rep)
	return hex.EncodeToString(h.Sum(nil))
}

// passDigest hashes the sorted rows together with the aggregates.
func passDigest(rows []rowKey, rep *scenario.Report) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "row %s %016x\n", r.name, r.hash)
	}
	writeAggregates(h, rep)
	return hex.EncodeToString(h.Sum(nil))
}

func writeAggregates(w io.Writer, rep *scenario.Report) {
	fmt.Fprintf(w, "agg %d %d %d %d %d %d %d %d %d\n",
		rep.Joined, rep.Informed, rep.InternetOK, rep.ReportedSSIDClients,
		rep.TrueIPv6Only, rep.Overcount, rep.NAT44LogEntries, rep.NAT64Sessions,
		rep.PoisonedQueries)
	for _, c := range sortedClasses(rep.Classes) {
		fmt.Fprintf(w, "class %s %d\n", c, rep.Classes[c])
	}
	names := make([]string, 0, len(rep.Profiles))
	for p := range rep.Profiles {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		fmt.Fprintf(w, "prof %s %+v\n", p, rep.Profiles[p])
	}
	for _, c := range sortedClasses(rep.Convergence) {
		fmt.Fprintf(w, "conv %s %+v\n", c, rep.Convergence[c])
	}
	if t := rep.Traffic; t != nil {
		// The gateway's live session counts are levels read once per
		// world at the end of its run, not per-device sums: under reboot
		// churn each world ends holding one session opened after its last
		// flush, so a sharded run reports one per shard. Like
		// HealthyQueries they depend on how devices share a world.
		g := t.Gateway
		g.NAT64Sessions, g.NAT44Sessions = 0, 0
		fmt.Fprintf(w, "traffic %+v %+v\n", t.Flows, g)
		for _, c := range sortedClasses(t.PerClass) {
			fmt.Fprintf(w, "tclass %s %+v\n", c, t.PerClass[c])
		}
	}
}

func sortedClasses[V any](m map[metrics.Class]V) []metrics.Class {
	out := make([]metrics.Class, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracleRun is the reference a workload's passes are checked against.
type oracleRun struct {
	rows      []rowKey // sorted by name
	aggregate string
	digest    string
	// pinnedOK is false when the seed-1 full-size digest differs from
	// the pinned value, which makes every pass count as failed.
	pinnedOK bool
	pinned   string
}

// collectRows is a RowSink that keeps every row's key, for runs outside
// the timed passes.
type collectRows struct {
	buf  []byte
	rows []rowKey
}

// ObserveRow implements scenario.RowSink.
func (c *collectRows) ObserveRow(r scenario.Row) {
	c.rows = append(c.rows, rowKey{r.Spec.Name, rowHash(&c.buf, &r)})
}

// newOracle seals a reference run: sorts its rows, checks they cover
// exactly the generated device names, and digests it.
func newOracle(c *collectRows, rep *scenario.Report, names []string, pinned string) (*oracleRun, error) {
	sortRows(c.rows)
	want := append([]string(nil), names...)
	sort.Strings(want)
	if len(want) != len(c.rows) {
		return nil, fmt.Errorf("oracle produced %d rows for %d generated devices", len(c.rows), len(want))
	}
	for i, n := range want {
		if c.rows[i].name != n {
			return nil, fmt.Errorf("oracle row %q does not match generated device %q", c.rows[i].name, n)
		}
	}
	o := &oracleRun{
		rows:      c.rows,
		aggregate: aggregateDigest(rep),
		digest:    passDigest(c.rows, rep),
		pinnedOK:  true,
		pinned:    pinned,
	}
	if pinned != "" && o.digest != pinned {
		o.pinnedOK = false
	}
	return o, nil
}
