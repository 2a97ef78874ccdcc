package eval

import (
	"fmt"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

// Fig13Options configures the efficiency experiment (paper Fig. 13):
// per-time-slice convergence time of UIPCC and PMF (which retrain from
// scratch every slice) versus AMF (which updates incrementally).
type Fig13Options struct {
	Dataset dataset.Config
	Attr    dataset.Attribute
	Slices  int // number of consecutive slices to replay (0 = all)
	Seed    int64
}

// fig13Density is the observation density of every replayed slice, the
// paper's 30%.
const fig13Density = 0.30

func (o Fig13Options) withDefaults(ds dataset.Config) Fig13Options {
	if o.Slices <= 0 || o.Slices > ds.Slices {
		o.Slices = ds.Slices
	}
	return o
}

// Fig13Result holds per-slice training times in seconds, per approach.
type Fig13Result struct {
	Attr   dataset.Attribute
	Slices int
	// Seconds[name][t] is the convergence time at slice t.
	Seconds map[string][]float64
	Order   []string
	// AMFEpochs[t] is the number of replay epochs AMF needed to converge
	// at slice t; after warmup this collapses because the model carries
	// its factors across slices.
	AMFEpochs []int
}

// RunFig13 replays consecutive time slices. UIPCC and PMF retrain on each
// slice's matrix; a single AMF model observes each slice's stream and
// refits incrementally, with its clock advanced so the previous slice's
// samples expire (Algorithm 1's expiration step).
func RunFig13(opts Fig13Options) (*Fig13Result, error) {
	gen, err := dataset.New(opts.Dataset)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(opts.Dataset)
	res := &Fig13Result{
		Attr:    opts.Attr,
		Slices:  opts.Slices,
		Seconds: map[string][]float64{},
		Order:   []string{"UIPCC", "PMF", "AMF"},
	}

	// Persistent AMF model with the paper's 15-minute expiry.
	rmin, rmax := opts.Attr.Range()
	amfCfg := core.DefaultConfig(opts.Attr.DefaultAlpha(), rmin, rmax)
	amfCfg.Seed = opts.Seed
	amfCfg.Expiry = opts.Dataset.Interval
	amf, err := core.New(amfCfg)
	if err != nil {
		return nil, err
	}

	uipcc := UIPCCApproach()
	pmf := PMFApproach()
	for t := 0; t < opts.Slices; t++ {
		seed := opts.Seed + int64(t)*104729
		sp, err := stream.SliceSplit(gen, opts.Attr, t, fig13Density, seed)
		if err != nil {
			return nil, err
		}
		ctx := NewTrainContext(opts.Attr, opts.Dataset.Users, opts.Dataset.Services, sp, seed)

		for _, a := range []Approach{uipcc, pmf} {
			_, elapsed, err := TimedTrain(a, ctx)
			if err != nil {
				return nil, fmt.Errorf("eval: fig13 %s slice %d: %w", a.Name, t, err)
			}
			res.Seconds[a.Name] = append(res.Seconds[a.Name], elapsed.Seconds())
		}

		start := time.Now()
		amf.AdvanceTo(gen.SliceTime(t))
		amf.ObserveAll(sp.Train)
		var fit core.FitResult
		if t == 0 {
			// Cold start: the full annealed convergence pass (this is the
			// expensive first point of the paper's Fig. 13 AMF curve).
			fit = ConvergeAMF(amf)
		} else {
			// Warm: factors carry over; incremental refitting suffices.
			fit = amf.Fit(warmFitOptions)
		}
		res.Seconds["AMF"] = append(res.Seconds["AMF"], time.Since(start).Seconds())
		res.AMFEpochs = append(res.AMFEpochs, fit.Epochs)
	}
	return res, nil
}

// SpeedupAfterWarmup returns the mean per-slice time of each baseline
// divided by AMF's, computed over slices after the first (where AMF's
// incremental advantage shows; the paper notes AMF's slice-0 cost is
// comparable to a full training pass).
func (r *Fig13Result) SpeedupAfterWarmup() map[string]float64 {
	amf := r.Seconds["AMF"]
	out := map[string]float64{}
	if len(amf) < 2 {
		return out
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	amfMean := mean(amf[1:])
	if amfMean == 0 {
		return out
	}
	for name, secs := range r.Seconds {
		if name == "AMF" || len(secs) < 2 {
			continue
		}
		out[name] = mean(secs[1:]) / amfMean
	}
	return out
}
