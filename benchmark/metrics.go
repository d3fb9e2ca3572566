package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"

	"mcio/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json declares the same
// names, units and directions; a test holds the two together.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. Times are CPU times: the
// program is serial, so its CPU time is its wall time on a host of its
// own, without the time a shared host's hypervisor steals.
var endToEnd = []metricDef{
	{"sweep_cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// timedLayers are the public calls the traced run times. Each reports its
// self time, the heap bytes it allocated and its call count.
var timedLayers = []string{
	"workload.requests",
	"bench.context",
	"core.divide_groups",
	"core.plan",
	"twophase.plan",
	"collio.validate",
	"collio.cached_plan",
	"collio.plan_cache",
	"collio.build_shape",
	"collio.cost_write",
	"collio.cost_read",
	"collio.cost_faults",
	"fastsim.cost_write",
	"fastsim.cost_read",
	"fastsim.cost_faults",
	"faults.generate",
	"analyze.blame",
	"obs.encode",
}

// workCounts are the per-layer work counters of the traced run. All but
// workload.extents and core.groups repeat exactly for a given seed and
// move only when prices or plans change.
var workCounts = []string{
	"workload.extents",
	"core.groups",
	"core.domains",
	"core.paged_aggregators",
	"collio.meta_messages",
	"faults.events",
	"faults.failovers",
	"faults.stalls",
	"faults.replayed_rounds",
	"sim.rounds",
	"sim.requests",
	"sim.recovery_rounds",
}

// perLayer are the metrics of a traced run, in report order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range timedLayers {
		defs = append(defs,
			metricDef{l + "_s", "s", "lower"},
			metricDef{l + "_alloc_mb", "MB", "lower"},
			metricDef{l + "_calls", "count", "lower"})
	}
	defs = append(defs, metricDef{"core.place_s", "s", "lower"})
	for _, c := range workCounts {
		defs = append(defs, metricDef{c, "count", "lower"})
	}
	return append(defs,
		metricDef{"sim.mc_write_MBps", "MB/s", "higher"},
		metricDef{"sim.mc_read_MBps", "MB/s", "higher"},
		metricDef{"trace.wall_s", "s", "lower"},
		metricDef{"trace.coverage", "ratio", "higher"},
		metricDef{"prices_expected_known", "count", "higher"},
		metricDef{"prices_match_expected", "count", "higher"},
	)
}

const mib = 1 << 20

// ledgerDigest hashes each cell's name, bandwidth bits, simulated
// seconds bits and round count: equal digests mean bit-identical prices.
func ledgerDigest(entries []obs.RunEntry) string {
	h := sha256.New()
	var buf [8]byte
	for _, e := range entries {
		h.Write([]byte(e.Name))
		h.Write([]byte{0})
		for _, v := range []uint64{math.Float64bits(e.BandwidthMBps), math.Float64bits(e.WallSeconds), uint64(e.Rounds)} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// brokenCells counts the cells that break a pricing invariant: the
// bandwidth must be positive and equal the workload's total bytes over
// the simulated seconds, which also pins the priced bytes to the total.
func brokenCells(entries []obs.RunEntry, totalBytes int64) int {
	n := 0
	for _, e := range entries {
		if !(e.BandwidthMBps > 0) || e.BandwidthMBps != float64(totalBytes)/e.WallSeconds/1e6 {
			n++
		}
	}
	return n
}

// differingCells counts the cells of got that are not bit-identical to
// the same cell of want; a missing or extra cell counts once.
func differingCells(want, got []obs.RunEntry) int {
	n := len(want) - len(got)
	if n < 0 {
		n = -n
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if !sameEntry(want[i], got[i]) {
			n++
		}
	}
	return n
}

// sameEntry compares two ledger entries field by field, floats by bits.
func sameEntry(a, b obs.RunEntry) bool {
	return a.Name == b.Name && a.Rounds == b.Rounds &&
		math.Float64bits(a.BandwidthMBps) == math.Float64bits(b.BandwidthMBps) &&
		math.Float64bits(a.WallSeconds) == math.Float64bits(b.WallSeconds) &&
		sameFloats(a.Blame, b.Blame) && sameFloats(a.Metrics, b.Metrics)
}

func sameFloats(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// mcBandwidth is the geometric mean bandwidth of the memory-conscious
// cells in one direction, 0 when there are none. Sweep entries are named
// <strategy>/<op>/mem=<MB>; fault entries end in /<strategy> and are
// writes.
func mcBandwidth(entries []obs.RunEntry, op string) float64 {
	var logSum float64
	n := 0
	for _, e := range entries {
		if !strings.Contains(e.Name, "memory-conscious") {
			continue
		}
		dir := "write"
		if strings.Contains(e.Name, "/read/") {
			dir = "read"
		}
		if dir == op {
			logSum += math.Log(e.BandwidthMBps)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
