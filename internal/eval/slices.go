package eval

import (
	"fmt"
	"strings"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

// SliceSeriesOptions configures the supplementary all-slices experiment:
// the paper reports Table I on time slice 1 and defers the full 64-slice
// results to its supplementary report; this runner produces that series,
// evaluating UIPCC, PMF and AMF (the Fig. 10 trio) independently on every
// slice.
type SliceSeriesOptions struct {
	Dataset dataset.Config
	Attr    dataset.Attribute
	Density float64 // default 0.10, the paper's headline sparsity
	Slices  int     // number of consecutive slices (0 = all)
	Seed    int64
}

func (o SliceSeriesOptions) withDefaults() SliceSeriesOptions {
	if o.Density == 0 {
		o.Density = 0.10
	}
	if o.Slices <= 0 || o.Slices > o.Dataset.Slices {
		o.Slices = o.Dataset.Slices
	}
	return o
}

// SliceSeriesResult holds per-slice metrics per approach.
type SliceSeriesResult struct {
	Attr    dataset.Attribute
	Density float64
	Slices  int
	// Series[name][t] is the metrics of approach name on slice t.
	Series map[string][]Metrics
	Order  []string
}

// RunSliceSeries evaluates every approach on every slice.
func RunSliceSeries(opts SliceSeriesOptions) (*SliceSeriesResult, error) {
	gen, err := dataset.New(opts.Dataset)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	res := &SliceSeriesResult{
		Attr:    opts.Attr,
		Density: opts.Density,
		Slices:  opts.Slices,
		Series:  map[string][]Metrics{},
	}
	approaches := []Approach{UIPCCApproach(), PMFApproach(), AMFApproach("AMF", AMFOverrides{})}
	for _, a := range approaches {
		res.Order = append(res.Order, a.Name)
	}
	for t := 0; t < opts.Slices; t++ {
		seed := opts.Seed + int64(t)*6007
		sp, err := stream.SliceSplit(gen, opts.Attr, t, opts.Density, seed)
		if err != nil {
			return nil, err
		}
		ctx := NewTrainContext(opts.Attr, opts.Dataset.Users, opts.Dataset.Services, sp, seed)
		for _, a := range approaches {
			pred, err := a.Train(ctx)
			if err != nil {
				return nil, fmt.Errorf("eval: slice %d train %s: %w", t, a.Name, err)
			}
			res.Series[a.Name] = append(res.Series[a.Name], Compute(pred, sp.Test))
		}
	}
	return res, nil
}

// MeanMRE returns the across-slice mean MRE of an approach, or 0 when
// unknown.
func (r *SliceSeriesResult) MeanMRE(approach string) float64 {
	series, ok := r.Series[approach]
	if !ok || len(series) == 0 {
		return 0
	}
	var sum float64
	for _, m := range series {
		sum += m.MRE
	}
	return sum / float64(len(series))
}

// String renders the per-slice MRE table.
func (r *SliceSeriesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s per-slice MRE at density %.0f%% (supplementary: all time slices)\n", r.Attr, r.Density*100)
	fmt.Fprintf(&b, "%6s", "slice")
	for _, name := range r.Order {
		fmt.Fprintf(&b, " %9s", name)
	}
	b.WriteString("\n")
	for t := 0; t < r.Slices; t++ {
		fmt.Fprintf(&b, "%6d", t)
		for _, name := range r.Order {
			fmt.Fprintf(&b, " %9.3f", r.Series[name][t].MRE)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%6s", "mean")
	for _, name := range r.Order {
		fmt.Fprintf(&b, " %9.3f", r.MeanMRE(name))
	}
	b.WriteString("\n")
	return b.String()
}
