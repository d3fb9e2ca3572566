package machine

// Node is one compute node instance of a Machine. Its memory figures start
// out uniform (copied from the Config); the memory model perturbs
// Avail per node to create the availability variance the paper studies.
type Node struct {
	Capacity int64 // total DRAM, bytes
	Avail    int64 // memory currently available for aggregation buffers
}

// Machine is an instantiated cluster: a validated Config plus one Node per
// configured node.
type Machine struct {
	Cfg   Config
	Nodes []*Node
}

// New instantiates a Machine from cfg. The instance starts with every
// node's available memory equal to its capacity.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, Nodes: make([]*Node, cfg.Nodes)}
	for i := range m.Nodes {
		m.Nodes[i] = &Node{Capacity: cfg.MemPerNode, Avail: cfg.MemPerNode}
	}
	return m, nil
}

// MustNew is New, panicking on invalid configuration. Use in tests and
// examples where the config is a literal.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// AvailMemory returns each node's available memory, indexed by node ID.
func (m *Machine) AvailMemory() []int64 {
	out := make([]int64, len(m.Nodes))
	for i, n := range m.Nodes {
		out[i] = n.Avail
	}
	return out
}
