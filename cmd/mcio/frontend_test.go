package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestMain lets the front-end tests drive the real command: with
// MCIO_TEST_MAIN=1 in the environment the test binary runs main on its
// arguments instead of the tests, so usage banners, error lines and
// exit codes are checked exactly as a shell sees them.
func TestMain(m *testing.M) {
	if os.Getenv("MCIO_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs mcio with args in a subprocess and returns its stdout,
// stderr and exit code.
func runMain(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	return runMainIn(t, t.TempDir(), args...)
}

// runMainIn is runMain with dir as the working directory, for runs
// whose output files the test reads back.
func runMainIn(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MCIO_TEST_MAIN=1")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatalf("mcio %s: %v", strings.Join(args, " "), err)
	return "", "", 0
}

// TestExpAllGolden pins `mcio -exp all` byte for byte, serial and
// parallel: every experiment's rendering, in display order.
func TestExpAllGolden(t *testing.T) {
	golden := filepath.Join("testdata", "exp_all.golden")
	for _, parallel := range []string{"1", "2"} {
		out, stderr, code := runMain(t, "-exp", "all", "-parallel", parallel)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d: %s", parallel, code, stderr)
		}
		if *update && parallel == "1" {
			if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("-parallel %s: output differs from %s (rerun with -update after an intended change)", parallel, golden)
		}
	}
}

// TestChaosGolden pins the corruption soak and the gray campaign byte
// for byte, with repair on and off: every count in their summaries is a
// pure function of the seed.
func TestChaosGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"chaos.golden", []string{"chaos", "-seed", "1", "-ops", "50"}},
		{"chaos_norepair.golden", []string{"chaos", "-seed", "1", "-ops", "50", "-repair=false"}},
		{"gray.golden", []string{"chaos", "gray", "-seed", "1", "-ops", "10"}},
		{"gray_norepair.golden", []string{"chaos", "gray", "-seed", "1", "-ops", "10", "-repair=false"}},
	}
	for _, c := range cases {
		out, stderr, code := runMain(t, c.args...)
		if code != 0 {
			t.Errorf("mcio %s: exit %d: %s", strings.Join(c.args, " "), code, stderr)
			continue
		}
		golden := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("mcio %s: output differs from %s (rerun with -update after an intended change):\n%s",
				strings.Join(c.args, " "), golden, out)
		}
	}
}

// TestObserveFaultsGolden pins the summary of `mcio observe fig7
// -faults 2` byte for byte, serial and parallel, for both directions:
// every count and price of a faulted run is a pure function of the seed.
func TestObserveFaultsGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"observe_faults.golden", []string{"observe", "fig7", "-faults", "2"}},
		{"observe_faults_read.golden", []string{"observe", "fig7", "-faults", "2", "-op", "read"}},
	}
	for _, c := range cases {
		golden := filepath.Join("testdata", c.golden)
		for _, parallel := range []string{"1", "2"} {
			args := append(append([]string{}, c.args...), "-parallel", parallel)
			out, stderr, code := runMain(t, args...)
			if code != 0 {
				t.Errorf("mcio %s: exit %d: %s", strings.Join(args, " "), code, stderr)
				continue
			}
			if *update && parallel == "1" {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("mcio %s: output differs from %s (rerun with -update after an intended change):\n%s",
					strings.Join(args, " "), golden, out)
			}
		}
	}
}

// TestProfileGrayGolden pins `mcio profile gray` byte for byte: the
// summary (saturation thresholds, the duel's detection lags) and every
// sample and journal event of the -csv file. The gray duel runs the
// detector, the breakers and the proactive move off a suspected host,
// so their constants all reach this output.
func TestProfileGrayGolden(t *testing.T) {
	dir := t.TempDir()
	args := []string{"profile", "gray", "-csv", "gray.csv"}
	out, stderr, code := runMainIn(t, dir, args...)
	if code != 0 {
		t.Fatalf("mcio %s: exit %d: %s", strings.Join(args, " "), code, stderr)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "gray.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden, got string
	}{
		{"profile_gray.golden", out},
		{"profile_gray_csv.golden", string(csv)},
	} {
		golden := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.WriteFile(golden, []byte(c.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if c.got != string(want) {
			t.Errorf("mcio %s: output differs from %s (rerun with -update after an intended change)",
				strings.Join(args, " "), golden)
		}
	}
}

// TestFrontEndChoices pins every front end's list of choices: the usage
// banner and the unknown-name error line, with the exit code.
func TestFrontEndChoices(t *testing.T) {
	const (
		exp     = "table1, fig2, fig4, fig5, fig6, fig7, fig8, motivation, comparison, random, plan, scaling, trajectory, blame, trace, tune, ablation, faults, all"
		ledger  = "fig6, fig7, fig8, fig-exa, fig-exa-faults, trajectory, faults, chaos, chaos-gray"
		figures = "fig6, fig7, fig8"
		profile = "fig6, fig7, fig8, gray"
		chaos   = "corruption, gray"
	)
	bar := func(list string) string { return strings.ReplaceAll(list, ", ", "|") }
	cases := []struct {
		args   []string
		stderr string // the banner line for -h, the whole stderr otherwise
		code   int
	}{
		{[]string{"-exp", "x"}, `mcio: unknown experiment "x" (valid: ` + exp + ")\n", 1},
		{[]string{"-exp", "all", "-json", "out.json"}, `mcio: -json needs -exp to name one figure (` + figures + `), not "all"` + "\n", 2},
		{[]string{"-exp", "table1", "-json", "out.json"}, `mcio: -json needs -exp to name one figure (` + figures + `), not "table1"` + "\n", 2},
		{[]string{"bench", "-h"}, "usage: mcio bench [" + bar(ledger) + "] [flags]", 1},
		{[]string{"bench", "x"}, `mcio bench: unknown experiment "x" (valid: ` + ledger + ")\n", 1},
		{[]string{"observe", "-h"}, "usage: mcio observe [" + bar(figures) + "] [flags]", 0},
		{[]string{"observe", "x"}, `mcio observe: unknown figure "x" (valid: ` + figures + ")\n", 1},
		{[]string{"profile", "-h"}, "usage: mcio profile [" + bar(profile) + "] [flags]", 1},
		{[]string{"profile", "x"}, `mcio profile: unknown profile experiment "x" (valid: ` + profile + ")\n", 1},
		{[]string{"chaos", "-h"}, "usage: mcio chaos [" + bar(chaos) + "] [flags]", 2},
		{[]string{"chaos", "x"}, `mcio chaos: unknown chaos campaign "x" (valid: ` + chaos + ")\n", 2},
		// A name after the flags is read, not ignored; a second name is refused.
		{[]string{"bench", "-parallel", "1", "x"}, `mcio bench: unknown experiment "x" (valid: ` + ledger + ")\n", 1},
		{[]string{"bench", "fig6", "-parallel", "1", "x"}, `mcio bench: usage: one experiment name at most, got ["fig6" "x"]` + "\n", 2},
		{[]string{"observe", "-mem", "8", "x"}, `mcio observe: unknown figure "x" (valid: ` + figures + ")\n", 1},
		{[]string{"observe", "fig6", "x"}, `mcio observe: usage: one experiment name at most, got ["fig6" "x"]` + "\n", 2},
		{[]string{"profile", "-op", "read", "x"}, `mcio profile: unknown profile experiment "x" (valid: ` + profile + ")\n", 1},
		{[]string{"profile", "fig6", "x"}, `mcio profile: usage: one experiment name at most, got ["fig6" "x"]` + "\n", 2},
		{[]string{"chaos", "-ops", "2", "x"}, `mcio chaos: unknown chaos campaign "x" (valid: ` + chaos + ")\n", 2},
		{[]string{"chaos", "gray", "-ops", "2", "x"}, `mcio chaos: usage: one experiment name at most, got ["gray" "x"]` + "\n", 2},
	}
	for _, c := range cases {
		_, stderr, code := runMain(t, c.args...)
		got := stderr
		if c.args[len(c.args)-1] == "-h" {
			got, _, _ = strings.Cut(stderr, "\n")
		}
		if got != c.stderr || code != c.code {
			t.Errorf("mcio %s: exit %d, stderr %q\nwant exit %d, %q", strings.Join(c.args, " "), code, got, c.code, c.stderr)
		}
	}
	_, stderr, _ := runMain(t, "-h")
	if want := "\texperiment: " + exp + ` (default "all")`; !strings.Contains(stderr, want) {
		t.Errorf("mcio -h misses %q:\n%s", want, stderr)
	}
}
