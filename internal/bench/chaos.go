package bench

import (
	"bytes"
	"fmt"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/integrity"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// ChaosConfig parameterizes a chaos campaign: the corruption soak
// (mcio chaos) or the gray-failure campaign (mcio chaos gray).
type ChaosConfig struct {
	// Seed makes the whole campaign — workloads, machine states, fault
	// and corruption schedules, bit positions, hedge picks — a pure
	// function of one number.
	Seed uint64
	// Ops is how many randomized operations the campaign runs; 0 picks
	// the campaign's default.
	Ops int
	// Rate scales the silent-corruption event rates (1 ≈ a couple of
	// events per entity per operation) and, in the gray campaign, the
	// gray-fault rates; 0 disables injection.
	Rate float64
	// Repair enables the detect→re-request→rewrite path. With it off the
	// campaign instead proves that every injected corruption is detected.
	// Hedged duplicates ride the re-request protocol, so the gray
	// campaign's real-byte hedging only engages with repair on.
	Repair bool
	// Obs, when non-nil, receives the campaign counters (chaos.*,
	// health.*, integrity.*) and the planners' metrics.
	Obs *obs.Observer
	// Timeline, when non-nil, receives a sequence-ordered journal entry
	// per op that detected corruption (the integrity layer is
	// concurrent, so per-incident simulated timestamps do not exist);
	// the gray campaign also records its pinned duel's adaptive run.
	Timeline *timeline.Recorder
}

// corruptionTally counts a campaign's silent corruptions: what was
// injected into its real-byte operations and what the integrity layer
// did about it.
type corruptionTally struct {
	InjectedFlips int
	InjectedTorn  int
	Detected      int64
	Repaired      int64
	Unrepaired    int64
}

// Injected returns the total corruptions actually injected.
func (t *corruptionTally) Injected() int { return t.InjectedFlips + t.InjectedTorn }

// Undetected returns injected corruptions the integrity layer never
// flagged — the number the campaigns exist to hold at zero.
func (t *corruptionTally) Undetected() int {
	return max(t.Injected()-int(t.Detected), 0)
}

// summary renders the tally as one report line.
func (t *corruptionTally) summary() string {
	return fmt.Sprintf("corruptions: %d injected (%d bit flips, %d torn writes), %d detected, %d repaired, %d unrepaired, %d undetected\n",
		t.Injected(), t.InjectedFlips, t.InjectedTorn, t.Detected, t.Repaired, t.Unrepaired, t.Undetected())
}

// ChaosReport is the outcome of a campaign: what was injected, what the
// integrity layer did about it, how often the degradation ladder fired,
// and every invariant violation found (an empty Violations list is the
// pass condition).
type ChaosReport struct {
	Ops            int
	CollectiveOps  int // ops that ran the full aggregation path
	ShrunkOps      int // ops placed only after shrinking the appetite
	IndependentOps int // ops that fell back to independent I/O
	corruptionTally
	RewrittenBytes int64
	SumsStamped    int64
	SumsVerified   int64
	Violations     []string
}

// String renders the campaign summary.
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d ops (%d collective, %d shrunk, %d independent)\n",
		r.Ops, r.CollectiveOps, r.ShrunkOps, r.IndependentOps)
	b.WriteString(r.summary())
	fmt.Fprintf(&b, "integrity: %d sums stamped, %d verified, %d bytes rewritten\n",
		r.SumsStamped, r.SumsVerified, r.RewrittenBytes)
	writeInvariants(&b, r.Violations)
	return b.String()
}

// writeInvariants renders a campaign's invariant verdict.
func writeInvariants(b *strings.Builder, violations []string) {
	if len(violations) == 0 {
		fmt.Fprintf(b, "invariants: all held\n")
		return
	}
	fmt.Fprintf(b, "invariants: %d VIOLATED\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(b, "  %s\n", v)
	}
}

// chaosMix mixes the campaign seed with an operation index into an
// independent per-op seed (SplitMix64 increments, like the fault
// streams).
func chaosMix(seed uint64, op int) uint64 {
	return seed ^ (uint64(op)+1)*0x9e3779b97f4a7c15
}

// corruptionCampaign is the chaos view of the silent-corruption soak:
// its summary, and whether any invariant failed or any corruption went
// undetected.
func corruptionCampaign(c ChaosConfig) (string, bool, error) {
	rep, err := Chaos(c)
	if err != nil {
		return "", false, err
	}
	return rep.String(), len(rep.Violations) > 0 || rep.Undetected() > 0, nil
}

// Chaos runs a seeded randomized soak (Ops defaults to 50): every
// operation draws a fresh workload and machine state, plans it through
// the degradation ladder, and runs a real write (collective, shrunk, or
// independent) and read-back under a seeded silent-corruption schedule
// through the soak's round trip. The invariant battery: domains tile the
// request union exactly once, chosen aggregators respect Mem_min and
// N_ah when memory is ample, and the round trip's byte-level checks —
// written bytes conserved, detected corruptions equal to injected ones,
// and with repair enabled a file and reads byte-identical to the
// fault-free oracle. Violations are collected, not fatal. The campaign
// is deterministic: same config, same report.
func Chaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 50
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("bench: negative chaos corruption rate %g", cfg.Rate)
	}

	rep := &ChaosReport{Ops: cfg.Ops}
	// The campaign always runs observed: planner counters are how chaos
	// learns whether a plan used fallback placements (which may lawfully
	// exceed N_ah). A caller-supplied observer additionally exports
	// everything.
	soak, err := newCorruptionSoak(cfg, "chaos", &rep.corruptionTally, &rep.Violations)
	if err != nil {
		return nil, err
	}
	o, fsCfg, fail := soak.o, soakFS(), soak.fail
	o.Counter("chaos.ops").Add(int64(cfg.Ops))
	cViol := o.Counter("chaos.invariant_violations")
	cFallback := o.Counter("plan.fallback_placements", obs.L("strategy", core.New().Name()))

	for op := 0; op < cfg.Ops; op++ {
		opSeed := chaosMix(cfg.Seed, op)
		r := stats.NewRNG(opSeed)

		// Machine and tunables for this operation.
		ranks := 4 + r.Intn(6)
		perNode := 1 + r.Intn(3)
		topo, err := mpi.BlockTopology(ranks, perNode)
		if err != nil {
			return nil, err
		}
		mc := machine.Testbed640()
		mc.Nodes = topo.Nodes()
		params := collio.DefaultParams(int64(64 + r.Intn(192)))
		params.MsgInd = int64(100 + r.Intn(400))
		params.MsgGroup = int64(500 + r.Intn(2000))
		params.MemMin = int64(64 + r.Intn(192))
		params.Nah = 1 + r.Intn(4)

		// Memory scenario: mostly ample (the Mem_min/N_ah invariant is
		// assertable), sometimes tight (fallback placements), sometimes
		// fully starved (the degradation ladder must fire).
		avail := make([]int64, topo.Nodes())
		scenario := r.Intn(4)
		for i := range avail {
			switch scenario {
			case 3: // starved: no node clears Mem_min
				avail[i] = int64(r.Intn(int(params.MemMin)))
			case 2: // tight: a mix straddling Mem_min
				avail[i] = int64(r.Intn(3)) * params.MemMin / 2
			default: // ample
				avail[i] = 1 << 20
			}
		}
		ample := scenario <= 1

		ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail,
			FS: fsCfg, Params: params, Obs: o}

		// Workload: a permuted block list sliced among ranks, with holes
		// and occasional cross-rank overlaps.
		blocks := 16 + r.Intn(17)
		blockLen := int64(24 + r.Intn(101))
		reqs := make([]collio.RankRequest, ranks)
		for i := range reqs {
			reqs[i].Rank = i
		}
		for i, b := range r.Perm(blocks) {
			if r.Float64() < 0.15 {
				continue // hole
			}
			ext := pfs.Extent{Offset: int64(b) * blockLen, Length: blockLen}
			reqs[i%ranks].Extents = append(reqs[i%ranks].Extents, ext)
			if r.Float64() < 0.1 {
				// Overlap: a second rank claims the same block; rank order
				// decides the outcome, identically in executor and oracle.
				reqs[(i+1)%ranks].Extents = append(reqs[(i+1)%ranks].Extents, ext)
			}
		}

		// Plan through the degradation ladder.
		rs := collio.NewRequestSet(reqs)
		fallbackBefore := cFallback.Value()
		dp, err := core.New().PlanWithDegradation(ctx, rs)
		if err != nil {
			fail(op, "planning failed: %v", err)
			continue
		}
		effCtx := *ctx
		effCtx.Params = dp.Params
		switch {
		case dp.Independent:
			rep.IndependentOps++
		case dp.Shrinks > 0:
			rep.ShrunkOps++
		default:
			rep.CollectiveOps++
		}
		if scenario == 3 && !dp.Independent && dp.Shrinks == 0 {
			fail(op, "starved machine produced an undegraded plan")
		}

		expectedWritten := rs.TotalBytes()
		if !dp.Independent {
			// Invariant: domains tile the request union exactly once.
			if err := dp.Plan.ValidateSet(rs); err != nil {
				fail(op, "plan tiling violated: %v", err)
				continue
			}
			if ample && cFallback.Value() == fallbackBefore {
				// Invariant: absent fallback placements (which may lawfully
				// over-pack a host when every related node is saturated),
				// placement honours N_ah and only uses hosts that cleared
				// Mem_min.
				aggsOnNode := map[int]int{}
				for _, d := range dp.Plan.Domains {
					aggsOnNode[d.AggNode]++
					if avail[d.AggNode] < dp.Params.MemMin {
						fail(op, "aggregator on node %d with avail %d < MemMin %d",
							d.AggNode, avail[d.AggNode], dp.Params.MemMin)
					}
				}
				for n, c := range aggsOnNode {
					if c > dp.Params.Nah {
						fail(op, "node %d hosts %d aggregators > Nah %d", n, c, dp.Params.Nah)
					}
				}
			}
			expectedWritten = dp.Plan.TotalBytes()
		}

		exec := func(bufs [][]byte, file *pfs.File, dir collio.Op,
			chk *integrity.Checker, corr *faults.Corrupter) error {
			if dp.Independent {
				return collio.ExecIndependent(&effCtx, rs, bufs, file, dir, chk)
			}
			return collio.ExecVerified(&effCtx, dp.Plan, rs, bufs, file, dir, chk, corr, nil)
		}
		crep, err := soak.roundTrip(op, opSeed, ctx, rs, expectedWritten, exec)
		if err != nil {
			return nil, err
		}
		if crep != nil {
			rep.RewrittenBytes += crep.RewrittenBytes
			rep.SumsStamped += crep.Stamped
			rep.SumsVerified += crep.Verified
		}
	}

	o.Counter("chaos.corruptions_injected").Add(int64(rep.Injected()))
	o.Counter("chaos.corruptions_detected").Add(rep.Detected)
	o.Counter("chaos.corruptions_repaired").Add(rep.Repaired)
	o.Counter("chaos.degraded_ops").Add(int64(rep.ShrunkOps + rep.IndependentOps))
	cViol.Add(int64(len(rep.Violations)))
	return rep, nil
}

// corruptionSoak is the real-byte half both chaos campaigns share: a
// small-stripe file system, the campaign's config and observer, and
// the report's corruption tally and violation list.
type corruptionSoak struct {
	cfg        ChaosConfig
	prefix     string // file names are prefix-op
	o          *obs.Observer
	fsys       *pfs.FileSystem
	tally      *corruptionTally
	violations *[]string
}

// newCorruptionSoak builds a campaign's soak; a nil cfg.Obs gets a
// private observer.
func newCorruptionSoak(cfg ChaosConfig, prefix string, tally *corruptionTally, violations *[]string) (*corruptionSoak, error) {
	fsys, err := pfs.NewFileSystem(soakFS())
	if err != nil {
		return nil, err
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	return &corruptionSoak{cfg: cfg, prefix: prefix, o: o, fsys: fsys, tally: tally, violations: violations}, nil
}

// fail records an invariant violation of op, or of the gray campaign's
// pinned duel when op < 0. Violations are collected, not fatal, so one
// bad op cannot hide later ones.
func (s *corruptionSoak) fail(op int, format string, args ...any) {
	where := fmt.Sprintf("op %d", op)
	if op < 0 {
		where = "duel"
	}
	*s.violations = append(*s.violations, fmt.Sprintf("%s: %s", where, fmt.Sprintf(format, args...)))
}

// soakFS is the campaigns' file system: small stripes, so every extent
// spans several object accesses.
func soakFS() pfs.Config {
	fsCfg := pfs.DefaultConfig(4)
	fsCfg.StripeUnit = 64
	return fsCfg
}

// execFunc runs one direction of an op's real-byte data path over the
// rank buffers: the collective executor, hedged or not, or independent
// I/O.
type execFunc func(bufs [][]byte, file *pfs.File, dir collio.Op,
	chk *integrity.Checker, corr *faults.Corrupter) error

// roundTrip writes the requests of rs through exec under the op's seeded
// silent-corruption schedule, reads them back with fresh buffers through
// the same path, and checks the byte-level invariant battery: written
// bytes are conserved (the planned bytes plus repair rewrites, even when
// writes are torn), every injected corruption is detected, with repair
// off every detection stays unrepaired, and with repair on (or nothing
// injected) the file equals the fault-free oracle and every rank reads
// back the oracle's bytes. Violations go to the soak's sink. The op is
// tallied and its integrity report returned unless the write or read
// itself failed, which returns a nil report.
func (s *corruptionSoak) roundTrip(op int, seed uint64, ctx *collio.Context,
	rs *collio.RequestSet, planned int64, exec execFunc) (*integrity.Report, error) {
	topo := ctx.Topo
	ranks := topo.Size()

	// Corruption schedule and its data-level replayer.
	spec := faults.DefaultSpec(seed, 1).WithRate(0).WithCorruption(s.cfg.Rate)
	fplan, err := spec.Generate(topo.Nodes(), ctx.FS.Targets)
	if err != nil {
		return nil, err
	}
	ranksByNode := make([][]int, topo.Nodes())
	for rank := 0; rank < ranks; rank++ {
		n := topo.NodeOf(rank)
		ranksByNode[n] = append(ranksByNode[n], rank)
	}
	corr := faults.NewCorrupter(fplan, ranksByNode)
	s.fsys.SetCorrupter(corr)

	chk := integrity.NewChecker(integrity.Config{Seed: seed, Repair: s.cfg.Repair})
	chk.SetObserver(s.o)

	// Rank buffers, sized and laid out by the set's canonical lists, and
	// the fault-free oracle.
	bufs := make([][]byte, rs.Len())
	var size int64
	for i := range bufs {
		list := rs.List(i)
		bufs[i] = make([]byte, pfs.TotalBytes(list))
		fillChaosPattern(op, i, bufs[i])
		if len(list) > 0 {
			size = max(size, list[len(list)-1].End())
		}
	}
	oracle := make([]byte, size)
	for i, buf := range bufs {
		var pos int64
		for _, e := range rs.List(i) {
			copy(oracle[e.Offset:e.End()], buf[pos:pos+e.Length])
			pos += e.Length
		}
	}

	file := s.fsys.Open(fmt.Sprintf("%s-%d", s.prefix, op))
	writtenBefore := sumI64(s.fsys.Stats().Written())
	if err := exec(bufs, file, collio.Write, chk, corr); err != nil {
		s.fail(op, "write failed: %v", err)
		return nil, nil
	}

	// Invariant: written bytes are conserved — the plan's bytes plus
	// repair rewrites, torn or not (a torn access still acknowledges its
	// full request; that is what makes the tear silent). Hedged
	// duplicates are messages, never writes.
	writtenDelta := sumI64(s.fsys.Stats().Written()) - writtenBefore
	if rewritten := chk.Report().RewrittenBytes; writtenDelta != planned+rewritten {
		s.fail(op, "bytes-written conservation violated: delta %d != planned %d + rewritten %d",
			writtenDelta, planned, rewritten)
	}

	readBufs := make([][]byte, len(bufs))
	for i := range readBufs {
		readBufs[i] = make([]byte, len(bufs[i]))
	}
	if err := exec(readBufs, file, collio.Read, chk, corr); err != nil {
		s.fail(op, "read failed: %v", err)
		return nil, nil
	}

	crep := chk.Report()
	crep.JournalInto(s.cfg.Timeline.J(), fmt.Sprintf("op %d", op))
	injected := corr.Injected()

	// Invariant: every injected corruption is detected — the torn-write
	// consumption rule and the per-message flip accounting make this an
	// exact equality, with and without repair, fresh flips on resends
	// and hedged duplicates included.
	if int(crep.Detected) != injected {
		s.fail(op, "detection mismatch: %d corruptions injected, %d detected", injected, crep.Detected)
	}

	if s.cfg.Repair || injected == 0 {
		// Invariant: with repair on (or nothing injected), the file
		// equals the oracle and reads return what was written.
		if crep.Unrepaired != 0 {
			s.fail(op, "%d corruptions unrepaired with repair enabled", crep.Unrepaired)
		}
		got := make([]byte, size)
		if _, err := file.ReadAt(got, 0); err != nil {
			s.fail(op, "oracle readback failed: %v", err)
		} else if !bytes.Equal(got, oracle) {
			s.fail(op, "file contents differ from fault-free oracle")
		}
		// Each rank's read must return the oracle bytes at its extents
		// (not necessarily its own written bytes: overlapping extents
		// resolve in rank order, so a lower rank reads back the higher
		// rank's data — in executor and oracle alike).
	readCheck:
		for i, buf := range readBufs {
			var pos int64
			for _, e := range rs.List(i) {
				if !bytes.Equal(buf[pos:pos+e.Length], oracle[e.Offset:e.End()]) {
					s.fail(op, "rank %d read differs from oracle at extent [%d,%d)", i, e.Offset, e.End())
					break readCheck
				}
				pos += e.Length
			}
		}
	} else if crep.Unrepaired == 0 {
		// Repair off: every detection must be accounted unrepaired.
		s.fail(op, "repair disabled but %d detections left no unrepaired count", crep.Detected)
	}

	t := s.tally
	t.InjectedFlips += corr.InjectedFlips()
	t.InjectedTorn += corr.InjectedTorn()
	t.Detected += crep.Detected
	t.Repaired += crep.Repaired
	t.Unrepaired += crep.Unrepaired
	return &crep, nil
}

// fillChaosPattern fills a rank buffer with bytes derived from the op,
// rank and position, so misplaced or stale bytes are detectable.
func fillChaosPattern(op, rank int, buf []byte) {
	for i := range buf {
		buf[i] = byte((op*17 + rank*131 + i*7 + 5) % 251)
	}
}

func sumI64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
