package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// seriesJSON is the stable export schema for a figure sweep.
type seriesJSON struct {
	Name     string      `json:"name"`
	Workload string      `json:"workload"`
	Scale    int64       `json:"scale"`
	Seed     uint64      `json:"seed"`
	SigmaMB  float64     `json:"sigma_mb"`
	Points   []pointJSON `json:"points"`
	Summary  summaryJSON `json:"summary"`
}

type pointJSON struct {
	MemMB    int     `json:"mem_mb"`
	Strategy string  `json:"strategy"`
	Op       string  `json:"op"`
	MBps     float64 `json:"mbps"`
	Groups   int     `json:"groups"`
	Domains  int     `json:"domains"`
	Aggs     int     `json:"aggregators"`
	Paged    int     `json:"paged_aggregators"`
	Rounds   int     `json:"rounds"`
	Seconds  float64 `json:"seconds"`
}

type summaryJSON struct {
	WriteImprovement float64 `json:"write_improvement"`
	ReadImprovement  float64 `json:"read_improvement"`
}

// WriteJSON serializes the series for external plotting tools.
func (s *Series) WriteJSON(w io.Writer) error {
	out := seriesJSON{
		Name:     s.Name,
		Workload: s.Workload,
		Scale:    s.Config.Scale,
		Seed:     s.Config.Seed,
		SigmaMB:  s.Config.SigmaMB,
		Summary: summaryJSON{
			WriteImprovement: s.Improvement("write"),
			ReadImprovement:  s.Improvement("read"),
		},
	}
	for _, p := range s.Points {
		pj := pointJSON{
			MemMB:    p.MemMB,
			Strategy: p.Strategy,
			Op:       p.Op,
			MBps:     p.MBps,
		}
		if r := p.Result; r != nil {
			pj.Groups = r.Groups
			pj.Domains = r.Domains
			pj.Aggs = r.Aggregators
			pj.Paged = r.PagedAggregators
			pj.Rounds = r.MaxRounds
			pj.Seconds = r.Seconds
		}
		out.Points = append(out.Points, pj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SaveJSON writes the series to a file.
func (s *Series) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	defer f.Close()
	if err := s.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}
