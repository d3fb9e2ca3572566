package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the runner and its tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// savedRun is one run's saved output.
type savedRun struct {
	header
	result
}

// loadRuns reads every *.out file of dir as the saved output of one run
// and groups the untraced and the traced runs by workload.
func loadRuns(dir string) (untraced, traced map[string][]savedRun, err error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	untraced, traced = map[string][]savedRun{}, map[string][]savedRun{}
	for _, f := range files {
		if !f.Type().IsRegular() || filepath.Ext(f.Name()) != ".out" {
			continue
		}
		path := filepath.Join(dir, f.Name())
		r, err := parseRun(path)
		if err != nil {
			return nil, nil, err
		}
		if r.Trace == 0 {
			untraced[r.Workload] = append(untraced[r.Workload], *r)
		} else {
			traced[r.Workload] = append(traced[r.Workload], *r)
		}
	}
	return untraced, traced, nil
}

// parseRun reads a run's output: the header line, then the result as the
// last line.
func parseRun(path string) (*savedRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: want a header line and a result line", path)
	}
	var r savedRun
	if err := json.Unmarshal(lines[len(lines)-2], &r.header); err != nil || r.Workload == "" {
		return nil, fmt.Errorf("%s: no header line before the result", path)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &r.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return &r, nil
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Verdicts of one (workload, metric) pair of run sets.
const (
	improved   = "improved"
	noWorse    = "no worse"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges the change's runs b against the parent's runs a, paired
// by seed. A gain needs the change to win at least nine pairs in ten and
// a median gap wider than the parent's interquartile spread. A loss
// beyond the bound is a regression, unless the parent's own spread is
// wider than the bound: then it is unresolved, unless every change run
// beats every parent run.
func verdict(a, b []float64, pairs [][2]float64, lowerBetter bool, bound float64) (string, int) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	worse := (medB - medA) / medA
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case len(pairs) > 0 && better(medB, medA) && wins*10 >= 9*len(pairs) && math.Abs(medB-medA) > q3-q1:
		return improved, wins
	case allBetter:
		return noWorse, wins
	case (q3-q1)/medA > bound:
		return unresolved, wins
	case worse > bound:
		return regressed, wins
	}
	return noWorse, wins
}

// compareCmd compares two directories of saved runs, the parent's first,
// with the bounds of BENCHMARK.json in the working directory.
func compareCmd(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare <parent-dir> <change-dir>")
	}
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	runsA, tracedA, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	runsB, tracedB, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	var problems []string
	fmt.Fprintf(out, "%-14s %-12s %26s %26s %8s %6s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
	for _, w := range workloadNames() {
		a, b := runsA[w], runsB[w]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(out, "%-14s missing from one side (%d vs %d runs)\n", w, len(a), len(b))
			continue
		}
		bySeed := map[uint64]savedRun{}
		for _, r := range a {
			bySeed[r.Seed] = r
		}
		for _, m := range s.EndToEnd {
			var va, vb []float64
			var pairs [][2]float64
			for _, r := range a {
				va = append(va, r.Metrics[m.Name].Value)
			}
			for _, r := range b {
				vb = append(vb, r.Metrics[m.Name].Value)
				if p, ok := bySeed[r.Seed]; ok {
					pairs = append(pairs, [2]float64{p.Metrics[m.Name].Value, r.Metrics[m.Name].Value})
				}
			}
			v, wins := verdict(va, vb, pairs, m.Better == "lower", m.Bound)
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(out, "%-14s %-12s %26s %26s %+7.2f%% %3d/%-2d  %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", ma, q1a, q3a),
				fmt.Sprintf("%.4g [%.4g, %.4g]", mb, q1b, q3b),
				(mb/ma-1)*100, wins, len(pairs), v)
			if v == regressed {
				problems = append(problems, w+" "+m.Name+" regressed")
			}
		}
		var differ, unpaired []string
		for _, r := range b {
			p, ok := bySeed[r.Seed]
			switch {
			case !ok:
			case !slices.Equal(p.PricedSeeds, r.PricedSeeds):
				unpaired = append(unpaired, fmt.Sprint(r.Seed))
			case p.LedgerSHA256 != r.LedgerSHA256:
				differ = append(differ, fmt.Sprint(r.Seed))
			}
		}
		if len(differ) > 0 {
			fmt.Fprintf(out, "%-14s prices differ at seeds %s\n", w, strings.Join(differ, " "))
		}
		if len(unpaired) > 0 {
			problems = append(problems, fmt.Sprintf("%s priced other seeds at run seeds %s", w, strings.Join(unpaired, " ")))
		}
		fa, fb := failShare(a), failShare(b)
		if fb > fa {
			problems = append(problems, fmt.Sprintf("%s failed cells %.4g%% > %.4g%%", w, fb*100, fa*100))
		}
		fmt.Fprintf(out, "%-14s trace overhead: parent %s, change %s\n", w,
			traceOverhead(a, tracedA[w]), traceOverhead(b, tracedB[w]))
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

// traceOverhead is the traced pass's wall time over the untraced pass's
// (sweep_wall_s), minus one, from the medians of the saved runs.
func traceOverhead(untraced, traced []savedRun) string {
	if len(traced) == 0 {
		return "no traced run"
	}
	var walls, sweeps []float64
	for _, r := range traced {
		walls = append(walls, r.Metrics["trace.wall_s"].Value)
	}
	for _, r := range untraced {
		sweeps = append(sweeps, r.SweepWallSeconds)
	}
	return fmt.Sprintf("%+.1f%% (%d traced runs)", (median(walls)/median(sweeps)-1)*100, len(traced))
}

// failShare is the share of attempted cells that failed.
func failShare(runs []savedRun) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
