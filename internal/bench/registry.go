package bench

import (
	"fmt"
	"io"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/twophase"
)

// Experiment is one named experiment and the views — front ends — it
// offers. Each view is a function field; a nil field keeps the
// experiment out of that view. The views receive their own record, so
// the figure views read the record's Figure builder instead of
// switching on its name.
type Experiment struct {
	Name string
	// Figure builds a figure's platform, workload and workload name.
	Figure func(scale int64, seed uint64) (Config, Workload, string, error)
	// HostCost adds a metrics-only "<name>/harness" entry with the host
	// wall time and allocation of producing the ledger (StampedLedger).
	HostCost bool

	Render  func(e *Experiment, w io.Writer, a Args) error                                      // mcio -exp
	Ledger  func(e *Experiment, rec *obs.RunRecord, a Args) error                               // mcio bench
	Observe func(e *Experiment, a Args) (*ObserveResult, error)                                 // mcio observe
	Profile func(e *Experiment, rec *timeline.Recorder, a Args, summary *strings.Builder) error // mcio profile
	Chaos   func(c ChaosConfig) (summary string, failed bool, err error)                        // mcio chaos
}

// Args are the parameters of one run; each view reads the ones it uses.
type Args struct {
	Scale    int64
	Seed     uint64
	MemMB    int       // observe, profile: paper-scale mean memory per aggregator; <= 0 picks 16
	Op       collio.Op // observe, profile
	Details  bool      // render: per-point aggregator accounting for figures
	JSONPath string    // render: also save figure series as JSON here
}

// experiments is the registry: every experiment of every front end, in
// display order. Each view lists the records it offers in table order.
var experiments = []Experiment{
	{Name: "table1", Render: renderTable1},
	{Name: "fig2", Render: renderFig2},
	{Name: "fig4", Render: renderFig4},
	{Name: "fig5", Render: renderFig5},
	{Name: "fig6", Figure: fig6, Render: renderSweep, Ledger: ledgerSweep, Observe: observeFigure, Profile: profileFigure},
	{Name: "fig7", Figure: fig7, Render: renderSweep, Ledger: ledgerSweep, Observe: observeFigure, Profile: profileFigure},
	{Name: "fig8", Figure: fig8, Render: renderSweep, Ledger: ledgerSweep, Observe: observeFigure, Profile: profileFigure},
	{Name: "fig-exa", Figure: figExa, HostCost: true, Ledger: ledgerNamedSweep},
	{Name: "fig-exa-faults", HostCost: true, Ledger: faultLedger(figExaFaultsRun, true)},
	{Name: "motivation", Render: tables(Motivation)},
	{Name: "comparison", Render: tables(StrategyComparison)},
	{Name: "random", Render: tables(func(scale int64, seed uint64) (*Table, error) { return RandomVsInterleaved(scale, seed, 16) })},
	{Name: "plan", Render: renderPlans},
	{Name: "scaling", Render: tables(func(scale int64, seed uint64) (*Table, error) { return ScalingSweep(scale, seed, 16) })},
	{Name: "trajectory", Render: tables(Trajectory), Ledger: ledgerTrajectory},
	{Name: "blame", Render: tables(TrajectoryBlame)},
	{Name: "trace", Render: renderTrace},
	{Name: "tune", Render: renderTune},
	{Name: "ablation", Render: tables(AblationGrouping, AblationNah, AblationSigma, AblationOverlap, AblationAggsPerNode)},
	{Name: "faults", Render: tables(FaultSweep), Ledger: faultLedger(faultSweepRun, false)},
	{Name: "chaos", Ledger: ledgerChaos},
	{Name: "chaos-gray", Ledger: ledgerGray},
	{Name: "corruption", Chaos: corruptionCampaign},
	{Name: "gray", Profile: profileGray, Chaos: grayCampaign},
}

// View is one front end over the registry.
type View int

const (
	ViewRender  View = iota // mcio -exp
	ViewLedger              // mcio bench
	ViewObserve             // mcio observe
	ViewProfile             // mcio profile
	ViewChaos               // mcio chaos
)

// nouns is what each view's unknown-name error calls its choices.
var nouns = [...]string{"experiment", "experiment", "figure", "profile experiment", "chaos campaign"}

// All is the render view's extra choice: every experiment, in order.
const All = "all"

func (e *Experiment) offers(v View) bool {
	switch v {
	case ViewRender:
		return e.Render != nil
	case ViewLedger:
		return e.Ledger != nil
	case ViewObserve:
		return e.Observe != nil
	case ViewProfile:
		return e.Profile != nil
	}
	return e.Chaos != nil
}

// In returns the experiments a view offers, in table order.
func In(v View) []*Experiment {
	var out []*Experiment
	for i := range experiments {
		if experiments[i].offers(v) {
			out = append(out, &experiments[i])
		}
	}
	return out
}

// Names lists a view's choices in table order, for its usage banner;
// the render view ends with All.
func Names(v View) []string {
	var names []string
	for _, e := range In(v) {
		names = append(names, e.Name)
	}
	if v == ViewRender {
		names = append(names, All)
	}
	return names
}

// Lookup returns the experiment called name in view v, or an error that
// lists the view's choices.
func Lookup(v View, name string) (*Experiment, error) {
	for _, e := range In(v) {
		if e.Name == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("unknown %s %q (valid: %s)", nouns[v], name, strings.Join(Names(v), ", "))
}

// renderSweep prints a figure's bandwidth table, with -details the
// per-point aggregator accounting, and with -json saves the series.
func renderSweep(e *Experiment, w io.Writer, a Args) error {
	s, err := sweep(e.Figure, a.Scale, a.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, Render(s))
	if a.Details {
		fmt.Fprintln(w, RenderDetails(s))
	}
	if a.JSONPath != "" {
		if err := s.SaveJSON(a.JSONPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved %s\n", a.JSONPath)
	}
	return nil
}

// tables is the render view of experiments that print tables: it
// prints each builder's table, in order.
func tables(builds ...func(scale int64, seed uint64) (*Table, error)) func(*Experiment, io.Writer, Args) error {
	return func(_ *Experiment, w io.Writer, a Args) error {
		for _, build := range builds {
			t, err := build(a.Scale, a.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		}
		return nil
	}
}

func renderTable1(_ *Experiment, w io.Writer, _ Args) error {
	fmt.Fprintln(w, "Table 1: potential exascale design vs 2010 HPC design")
	fmt.Fprintln(w, machine.RenderTable1())
	return nil
}

func renderTrace(_ *Experiment, w io.Writer, a Args) error {
	out, err := RoundTrace(a.Scale, a.Seed, 8)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, out)
	return nil
}

// renderFig2 reproduces the paper's Figure 2 as a trace: six processes,
// two aggregators, classic two-phase collective read.
func renderFig2(_ *Experiment, w io.Writer, _ Args) error {
	fmt.Fprintln(w, "Figure 2: two-phase collective I/O (6 processes, 2 aggregator nodes)")
	topo, err := mpi.BlockTopology(6, 3)
	if err != nil {
		return err
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   []int64{mc.MemPerNode, mc.MemPerNode},
		FS:      pfs.DefaultConfig(4),
		Params:  collio.DefaultParams(256),
	}
	var reqs []collio.RankRequest
	for r := 0; r < 6; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * 512, Length: 512}},
		})
	}
	plan, err := twophase.New().Plan(ctx, reqs)
	if err != nil {
		return err
	}
	for i, d := range plan.Domains {
		fmt.Fprintf(w, "  file domain %d: bytes %d..%d -> aggregator rank %d on node %d\n",
			i, d.Extents[0].Offset, d.Extents[len(d.Extents)-1].End(), d.Aggregator, d.AggNode)
	}
	fmt.Fprintln(w, "  phase 1 (I/O): each aggregator reads its file domain in buffer-sized rounds")
	fmt.Fprintln(w, "  phase 2 (communication): aggregators scatter the data to the requesting processes")
	fmt.Fprintln(w)
	return nil
}

// renderFig4 reproduces the paper's Figure 4: aggregation-group division
// across nine processes on three compute nodes with a serial data
// distribution.
func renderFig4(_ *Experiment, w io.Writer, _ Args) error {
	fmt.Fprintln(w, "Figure 4: aggregation group division (9 processes, 3 nodes, serial distribution)")
	topo, err := mpi.BlockTopology(9, 3)
	if err != nil {
		return err
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	params := collio.DefaultParams(100)
	params.MsgGroup = 800 // the tentative boundary lands mid-node and is extended
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   []int64{mc.MemPerNode, mc.MemPerNode, mc.MemPerNode},
		FS:      pfs.DefaultConfig(4),
		Params:  params,
	}
	var reqs []collio.RankRequest
	for r := 0; r < 9; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * 300, Length: 300}},
		})
	}
	for _, g := range core.DivideGroups(ctx, reqs) {
		ranks := make([]string, len(g.Ranks))
		for i, r := range g.Ranks {
			ranks[i] = fmt.Sprintf("P%d", r)
		}
		fmt.Fprintf(w, "  group %d: file [%d..%d) members %s (node boundary respected)\n",
			g.Index, g.Region.Offset, g.Region.End(), strings.Join(ranks, " "))
	}
	fmt.Fprintln(w)
	return nil
}

// renderFig5 demonstrates the two partition-tree remerge cases of
// Figures 5a/5b.
func renderFig5(_ *Experiment, w io.Writer, _ Args) error {
	fmt.Fprintln(w, "Figure 5: file-domain remerge on the binary partition tree")
	show := func(t *core.PartitionTree) {
		for i, l := range t.Leaves() {
			fmt.Fprintf(w, "    leaf %d: [%d..%d) %d bytes\n",
				i, l.Extents[0].Offset, l.Extents[len(l.Extents)-1].End(), l.Bytes)
		}
	}
	// Case 5a: sibling is a leaf.
	t5a, err := core.BuildTree([]pfs.Extent{{Offset: 0, Length: 200}}, 100)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  case 5a — before (sibling is a leaf):")
	show(t5a)
	if _, err := t5a.Remerge(t5a.Root.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  after removing the left leaf, its sibling takes over directly:")
	show(t5a)

	// Case 5b: sibling is an internal vertex; DFS finds the adjacent leaf.
	t5b, err := core.BuildTree([]pfs.Extent{{Offset: 0, Length: 400}}, 100)
	if err != nil {
		return err
	}
	if _, err := t5b.Remerge(t5b.Root.Left.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  case 5b — before (left leaf's sibling subtree was further split):")
	show(t5b)
	if _, err := t5b.Remerge(t5b.Root.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  after removal, the DFS-adjacent leaf of the sibling subtree absorbs it:")
	show(t5b)
	fmt.Fprintln(w)
	return nil
}

// renderTune runs the parameter auto-tuner (the paper's deferred
// "optimal values" study) on the Figure 7 workload and prints the
// search table.
func renderTune(_ *Experiment, w io.Writer, a Args) error {
	cfg := Fig7Config(a.Scale, a.Seed)
	cfg.MemMB = []int{16}
	wl, name := Fig7Workload(cfg)
	res, err := TuneWorkload(cfg, wl)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parameter auto-tuning on %s\n", name)
	fmt.Fprintln(w, res.Render(8))
	return nil
}

// renderPlans prints both strategies' placement decisions for the
// Figure 7 workload at 8 MB — the "where did my aggregators go" view.
func renderPlans(_ *Experiment, w io.Writer, a Args) error {
	cfg := Fig7Config(a.Scale, a.Seed)
	cfg.MemMB = []int{8}
	plans, topo, err := PlansAt(cfg, 8)
	if err != nil {
		return err
	}
	for _, p := range plans {
		fmt.Fprintln(w, p.Describe(topo))
	}
	return nil
}
