package eval

import (
	"fmt"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stats"
	"github.com/qoslab/amf/internal/stream"
)

// Fig10Options configures the prediction-error-distribution experiment
// (paper Fig. 10): UIPCC, PMF, and AMF at a fixed density, with signed
// errors histogrammed over [-fig10Range, fig10Range].
type Fig10Options struct {
	Dataset dataset.Config
	Attr    dataset.Attribute
	Density float64 // paper plots density 10%
	Seed    int64
}

// The paper's Fig. 10 histogram: 60 bins over errors in [-3, 3].
const (
	fig10Range = 3
	fig10Bins  = 60
)

// Fig10Result holds one error histogram per approach.
type Fig10Result struct {
	Attr       dataset.Attribute
	Histograms map[string]*stats.Histogram
	Order      []string
}

// RunFig10 trains UIPCC, PMF, and AMF on one split and histograms their
// signed prediction errors on the test set.
func RunFig10(opts Fig10Options) (*Fig10Result, error) {
	if opts.Density == 0 {
		opts.Density = 0.10
	}
	gen, err := dataset.New(opts.Dataset)
	if err != nil {
		return nil, err
	}
	sp, err := stream.SliceSplit(gen, opts.Attr, paperSlice, opts.Density, opts.Seed)
	if err != nil {
		return nil, err
	}
	ctx := NewTrainContext(opts.Attr, opts.Dataset.Users, opts.Dataset.Services, sp, opts.Seed)
	res := &Fig10Result{
		Attr:       opts.Attr,
		Histograms: make(map[string]*stats.Histogram),
	}
	for _, a := range []Approach{UIPCCApproach(), PMFApproach(), AMFApproach("AMF", AMFOverrides{})} {
		pred, err := a.Train(ctx)
		if err != nil {
			return nil, fmt.Errorf("eval: fig10 train %s: %w", a.Name, err)
		}
		h := stats.NewHistogram(-fig10Range, fig10Range, fig10Bins)
		h.ObserveAll(SignedErrors(pred, sp.Test))
		res.Histograms[a.Name] = h
		res.Order = append(res.Order, a.Name)
	}
	return res, nil
}

// CenterMass returns the share of an approach's errors inside [-w, +w]:
// the paper's Fig. 10 argument is that AMF's error distribution is denser
// around zero than UIPCC's and PMF's.
func (r *Fig10Result) CenterMass(approach string, w float64) float64 {
	h, ok := r.Histograms[approach]
	if !ok || h.Total() == 0 {
		return 0
	}
	var inside int
	for i, c := range h.Counts {
		center := h.BinCenter(i)
		if center >= -w && center <= w {
			inside += c
		}
	}
	return float64(inside) / float64(h.Total())
}
