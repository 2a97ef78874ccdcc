package eval

import (
	"fmt"
	"strings"

	"github.com/qoslab/amf/internal/dataset"
)

// ParamSweepOptions configures the one-at-a-time hyperparameter sweeps of
// the paper's "impact of parameters" analysis (detailed in its
// supplementary report): rank d, regularization λ, learning rate η, and
// EMA factor β, each varied with the others held at the paper's values.
type ParamSweepOptions struct {
	Dataset dataset.Config
	Attr    dataset.Attribute
	Rounds  int
	Seed    int64

	Ranks      []int
	Regs       []float64
	LearnRates []float64
	Betas      []float64
}

// sweepDensity is the density every sweep point is measured at.
const sweepDensity = 0.30

func (o ParamSweepOptions) withDefaults() ParamSweepOptions {
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if len(o.Ranks) == 0 {
		o.Ranks = []int{2, 5, 10, 20, 40}
	}
	if len(o.Regs) == 0 {
		o.Regs = []float64{0, 0.0001, 0.001, 0.01, 0.1}
	}
	if len(o.LearnRates) == 0 {
		o.LearnRates = []float64{0.1, 0.2, 0.4, 0.8, 1.6}
	}
	if len(o.Betas) == 0 {
		o.Betas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	return o
}

// ParamPoint is one sweep measurement.
type ParamPoint struct {
	Param   string
	Value   float64
	Metrics Metrics
}

// ParamSweepResult groups sweep points by parameter name.
type ParamSweepResult struct {
	Attr   dataset.Attribute
	Points []ParamPoint
}

// RunParamSweep evaluates AMF's accuracy as each hyperparameter varies:
// one RunTable1 call at the sweep density, one AMF override per point.
func RunParamSweep(opts ParamSweepOptions) (*ParamSweepResult, error) {
	opts = opts.withDefaults()
	res := &ParamSweepResult{Attr: opts.Attr}
	var approaches []Approach
	point := func(name string, value float64, ov AMFOverrides) {
		res.Points = append(res.Points, ParamPoint{Param: name, Value: value})
		approaches = append(approaches, AMFApproach(fmt.Sprintf("AMF(%s=%g)", name, value), ov))
	}
	for _, d := range opts.Ranks {
		point("rank", float64(d), AMFOverrides{Rank: &d})
	}
	for _, reg := range opts.Regs {
		point("lambda", reg, AMFOverrides{Reg: &reg})
	}
	for _, eta := range opts.LearnRates {
		point("eta", eta, AMFOverrides{LearnRate: &eta})
	}
	for _, beta := range opts.Betas {
		point("beta", beta, AMFOverrides{Beta: &beta})
	}
	table, err := RunTable1(Table1Options{
		Dataset:    opts.Dataset,
		Attr:       opts.Attr,
		Densities:  []float64{sweepDensity},
		Rounds:     opts.Rounds,
		Seed:       opts.Seed,
		Approaches: approaches,
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Points {
		res.Points[i].Metrics = table.Cells[i].Metrics
	}
	return res, nil
}

// ByParam returns the points for one parameter, in sweep order.
func (r *ParamSweepResult) ByParam(name string) []ParamPoint {
	var out []ParamPoint
	for _, p := range r.Points {
		if p.Param == name {
			out = append(out, p)
		}
	}
	return out
}

// String renders the sweeps as per-parameter MRE tables.
func (r *ParamSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s parameter sweeps (MRE per value)\n", r.Attr)
	for _, name := range []string{"rank", "lambda", "eta", "beta"} {
		pts := r.ByParam(name)
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-8s", name)
		for _, p := range pts {
			fmt.Fprintf(&b, " %8g", p.Value)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-8s", "MRE")
		for _, p := range pts {
			fmt.Fprintf(&b, " %8.3f", p.Metrics.MRE)
		}
		b.WriteString("\n")
	}
	return b.String()
}
