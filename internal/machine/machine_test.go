package machine

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{Testbed640(), Petascale2010(), Exascale2018()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", cfg.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Testbed640()
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CoresPerNode = -1 },
		func(c *Config) { c.MemPerNode = 0 },
		func(c *Config) { c.MemBandwidth = 0 },
		func(c *Config) { c.NICBandwidth = -5 },
		func(c *Config) { c.NetLatency = -1 },
		func(c *Config) { c.PagedBandwidthFraction = 0 },
		func(c *Config) { c.PagedBandwidthFraction = 1.5 },
	}
	for i, mut := range mutations {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestMemPerCoreShrinksAtExascale(t *testing.T) {
	p, e := Petascale2010(), Exascale2018()
	// The paper's central observation: memory per core drops from GBs to
	// around 10 MB, even though total memory grows 33x.
	if p.MemPerCore() <= e.MemPerCore() {
		t.Fatalf("memory per core should shrink: 2010=%d 2018=%d",
			p.MemPerCore(), e.MemPerCore())
	}
	if e.MemPerCore() > 16*MB {
		t.Fatalf("exascale memory per core = %d, expected ~10 MB", e.MemPerCore())
	}
	if e.MemBWPerCore() >= p.MemBWPerCore() {
		t.Fatalf("per-core memory BW should shrink: 2010=%g 2018=%g",
			p.MemBWPerCore(), e.MemBWPerCore())
	}
}

func TestTable1FactorChanges(t *testing.T) {
	rows := Table1()
	want := map[string]string{
		"System Peak":         "500",
		"System Memory":       "33",
		"Node Performance":    "80",
		"Node Memory BW":      "16",
		"Node Concurrency":    "83",
		"Interconnect BW":     "33",
		"System Size (nodes)": "50",
		"Storage":             "20",
		"I/O Bandwidth":       "100",
		"Power":               "3",
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Metric] = r.Factor
	}
	for metric, factor := range want {
		if got[metric] != factor {
			t.Errorf("Table1 %s factor = %q, want %q (paper)", metric, got[metric], factor)
		}
	}
	// Total concurrency: paper says 4444.
	if got["Total Concurrency"] != "4444" {
		t.Errorf("Total Concurrency factor = %q, want 4444", got["Total Concurrency"])
	}
}

func TestRenderTable1(t *testing.T) {
	s := RenderTable1()
	for _, want := range []string{"System Peak", "2010", "2018", "Factor", "I/O Bandwidth"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestNewMachine(t *testing.T) {
	cfg := Testbed640()
	cfg.Nodes = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 4 {
		t.Fatalf("got %d nodes", len(m.Nodes))
	}
	for i, n := range m.Nodes {
		if n.Avail != cfg.MemPerNode || n.Capacity != cfg.MemPerNode {
			t.Errorf("node %d memory not initialized from config", i)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cfg := Testbed640()
	cfg.Nodes = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := Testbed640()
	cfg.MemBandwidth = 0
	MustNew(cfg)
}

func TestScaled(t *testing.T) {
	cfg := Exascale2018().Scaled(90)
	if cfg.Nodes != 90 {
		t.Fatalf("Nodes = %d", cfg.Nodes)
	}
	if cfg.MemPerNode != Exascale2018().MemPerNode {
		t.Fatal("Scaled must keep per-node resources")
	}
	if cfg.SystemMemory != 90*cfg.MemPerNode {
		t.Fatal("Scaled must recompute system memory")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAvailMemory(t *testing.T) {
	cfg := Testbed640()
	cfg.Nodes = 2
	m := MustNew(cfg)
	m.Nodes[1].Avail = 7
	av := m.AvailMemory()
	if av[0] != cfg.MemPerNode || av[1] != 7 {
		t.Fatalf("AvailMemory = %v", av)
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	p0 := Interpolate(0)
	if p0.Nodes != Petascale2010().Nodes || p0.CoresPerNode != Petascale2010().CoresPerNode {
		t.Fatalf("t=0 != petascale: %+v", p0)
	}
	p1 := Interpolate(1)
	if p1.Nodes != Exascale2018().Nodes || p1.CoresPerNode != Exascale2018().CoresPerNode {
		t.Fatalf("t=1 != exascale: %+v", p1)
	}
	// Clamping.
	if Interpolate(-3).Nodes != p0.Nodes || Interpolate(7).Nodes != p1.Nodes {
		t.Fatal("t not clamped")
	}
}

func TestInterpolateMonotone(t *testing.T) {
	prevConcurrency := int64(0)
	prevMemPerCore := int64(1 << 62)
	for _, tt := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		cfg := Interpolate(tt)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("t=%v invalid: %v", tt, err)
		}
		if cfg.TotalConcurr < prevConcurrency {
			t.Fatalf("concurrency not monotone at t=%v", tt)
		}
		if cfg.MemPerCore() > prevMemPerCore {
			t.Fatalf("memory per core not shrinking at t=%v", tt)
		}
		prevConcurrency = cfg.TotalConcurr
		prevMemPerCore = cfg.MemPerCore()
	}
}
