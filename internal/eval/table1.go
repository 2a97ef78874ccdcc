package eval

import (
	"fmt"
	"strings"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

// Table1Options configures the accuracy-comparison experiment (paper
// Table I): every approach is trained at several matrix densities and
// evaluated on the removed entries, averaged over Rounds random splits.
type Table1Options struct {
	Dataset    dataset.Config
	Attr       dataset.Attribute
	Densities  []float64 // paper: 0.10 … 0.50 step 0.10
	Rounds     int       // paper: 20
	Seed       int64
	Approaches []Approach // nil means StandardApproaches()
}

// paperSlice is the time slice the paper's single-slice experiments
// report: slice 1, index 0.
const paperSlice = 0

func (o Table1Options) withDefaults() Table1Options {
	if len(o.Densities) == 0 {
		o.Densities = []float64{0.10, 0.20, 0.30, 0.40, 0.50}
	}
	if o.Rounds == 0 {
		o.Rounds = 20
	}
	if o.Approaches == nil {
		o.Approaches = StandardApproaches()
	}
	return o
}

// Table1Cell is the averaged result of one approach at one density.
type Table1Cell struct {
	Approach string
	Density  float64
	Metrics  Metrics
}

// Table1Result is the full accuracy comparison for one attribute.
type Table1Result struct {
	Attr  dataset.Attribute
	Cells []Table1Cell
}

// RunTable1 executes the accuracy comparison. The final approach in the
// list is treated as "ours" when computing improvement rows (as the paper
// computes AMF's improvement over the most competitive baseline). It is
// the one density × round × approach loop of the package: Figs. 11 and
// 12, the ablations and the parameter sweeps are approach and density
// lists handed to it.
func RunTable1(opts Table1Options) (*Table1Result, error) {
	opts = opts.withDefaults()
	gen, err := dataset.New(opts.Dataset)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Attr: opts.Attr}
	for _, density := range opts.Densities {
		perApproach := make([][]Metrics, len(opts.Approaches))
		for round := 0; round < opts.Rounds; round++ {
			seed := opts.Seed + int64(round)*7919
			sp, err := stream.SliceSplit(gen, opts.Attr, paperSlice, density, seed)
			if err != nil {
				return nil, err
			}
			ctx := NewTrainContext(opts.Attr, opts.Dataset.Users, opts.Dataset.Services, sp, seed)
			for ai, a := range opts.Approaches {
				pred, err := a.Train(ctx)
				if err != nil {
					return nil, fmt.Errorf("eval: train %s at density %.2f: %w", a.Name, density, err)
				}
				perApproach[ai] = append(perApproach[ai], Compute(pred, sp.Test))
			}
		}
		for ai, a := range opts.Approaches {
			res.Cells = append(res.Cells, Table1Cell{
				Approach: a.Name,
				Density:  density,
				Metrics:  Average(perApproach[ai]),
			})
		}
	}
	return res, nil
}

// Row returns the cell for (approach, density), or nil.
func (r *Table1Result) Row(approach string, density float64) *Table1Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Approach == approach && c.Density == density {
			return c
		}
	}
	return nil
}

// Densities returns the distinct densities in first-seen order.
func (r *Table1Result) Densities() []float64 {
	var out []float64
	seen := map[float64]bool{}
	for _, c := range r.Cells {
		if !seen[c.Density] {
			seen[c.Density] = true
			out = append(out, c.Density)
		}
	}
	return out
}

// Approaches returns the distinct approach names in first-seen order.
func (r *Table1Result) Approaches() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if !seen[c.Approach] {
			seen[c.Approach] = true
			out = append(out, c.Approach)
		}
	}
	return out
}

// String renders the result as the paper's Table I layout: one row per
// approach, MAE/MRE/NPRE columns per density, plus the improvement row of
// the last approach over the best competitor.
func (r *Table1Result) String() string {
	var b strings.Builder
	densities := r.Densities()
	approaches := r.Approaches()
	fmt.Fprintf(&b, "%s accuracy comparison (smaller is better)\n", r.Attr)
	fmt.Fprintf(&b, "%-10s", "Approach")
	for _, d := range densities {
		fmt.Fprintf(&b, " | %-23s", fmt.Sprintf("density=%.0f%%", d*100))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-10s", "")
	for range densities {
		fmt.Fprintf(&b, " | %7s %7s %7s", "MAE", "MRE", "NPRE")
	}
	b.WriteString("\n")
	for _, a := range approaches {
		fmt.Fprintf(&b, "%-10s", a)
		for _, d := range densities {
			c := r.Row(a, d)
			if c == nil {
				fmt.Fprintf(&b, " | %7s %7s %7s", "-", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " | %7.3f %7.3f %7.3f", c.Metrics.MAE, c.Metrics.MRE, c.Metrics.NPRE)
		}
		b.WriteString("\n")
	}
	if len(approaches) >= 2 {
		ours := approaches[len(approaches)-1]
		fmt.Fprintf(&b, "%-10s", "Improve.")
		for _, d := range densities {
			our := r.Row(ours, d)
			var comp []Metrics
			for _, a := range approaches[:len(approaches)-1] {
				if c := r.Row(a, d); c != nil {
					comp = append(comp, c.Metrics)
				}
			}
			if our == nil || len(comp) == 0 {
				fmt.Fprintf(&b, " | %7s %7s %7s", "-", "-", "-")
				continue
			}
			mae, mre, npre := Improvement(our.Metrics, comp)
			fmt.Fprintf(&b, " | %6.1f%% %6.1f%% %6.1f%%", mae*100, mre*100, npre*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}
