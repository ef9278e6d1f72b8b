package experiments

import (
	"fmt"
	"io"

	"bddbddb/internal/extract"
	"bddbddb/internal/precision"
)

// PrecisionNames lists the default precision-comparison workloads: the
// factory demonstration (where heap cloning must win strictly) plus the
// two smallest synthetic benchmarks for cost context.
func PrecisionNames() []string { return []string{"factory", "freetts", "nfcchat"} }

// Precision runs the {ci, cs, heap-cs} mode comparison over the named
// workloads ("factory" is the built-in precision.FactorySrc program;
// anything else resolves as a synthetic benchmark).
func (s *Suite) Precision(names []string) ([]*precision.Report, error) {
	var reps []*precision.Report
	for _, name := range names {
		f, err := s.precisionFacts(name)
		if err != nil {
			return nil, err
		}
		rep, err := precision.Compare(name, f, s.cfg(""), precision.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func (s *Suite) precisionFacts(name string) (*extract.Facts, error) {
	if name == "factory" {
		return precision.FactoryFacts()
	}
	p, err := s.Load(name)
	if err != nil {
		return nil, err
	}
	return p.Facts, nil
}

// WritePrecision renders the reports' deterministic text view.
func WritePrecision(w io.Writer, reps []*precision.Report) {
	for _, rep := range reps {
		rep.WriteText(w)
	}
}
