package eval

import (
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

// FloorOptions configures the noise-floor measurement: the accuracy of an
// oracle that knows every pair's true long-run mean QoS (the generator's
// PairMean). No predictor can beat it on average, because the residual is
// the dataset's irreducible temporal noise — so it calibrates how much of
// AMF's remaining error is model error versus noise. Only possible on the
// synthetic dataset (the real WS-DREAM trace has no known ground truth),
// which makes it an extension this reproduction can offer beyond the
// paper.
type FloorOptions struct {
	Dataset dataset.Config
	Attr    dataset.Attribute
	Seed    int64
}

// floorDensity is the split's density; only its test half is evaluated.
const floorDensity = 0.30

// FloorResult pairs the oracle's metrics with AMF's on the same split.
type FloorResult struct {
	Attr   dataset.Attribute
	Oracle Metrics
	AMF    Metrics
}

// RunFloor measures the oracle and AMF on an identical split.
func RunFloor(opts FloorOptions) (*FloorResult, error) {
	gen, err := dataset.New(opts.Dataset)
	if err != nil {
		return nil, err
	}
	sp, err := stream.SliceSplit(gen, opts.Attr, paperSlice, floorDensity, opts.Seed)
	if err != nil {
		return nil, err
	}
	oracle := func(u, s int) (float64, bool) {
		return gen.PairMean(opts.Attr, u, s), true
	}
	ctx := NewTrainContext(opts.Attr, opts.Dataset.Users, opts.Dataset.Services, sp, opts.Seed)
	amfPred, err := AMFApproach("AMF", AMFOverrides{}).Train(ctx)
	if err != nil {
		return nil, err
	}
	return &FloorResult{
		Attr:   opts.Attr,
		Oracle: Compute(oracle, sp.Test),
		AMF:    Compute(amfPred, sp.Test),
	}, nil
}

// GapMRE returns AMF's MRE divided by the oracle's: 1.0 means AMF has
// reached the irreducible noise floor.
func (r *FloorResult) GapMRE() float64 {
	if r.Oracle.MRE == 0 {
		return 0
	}
	return r.AMF.MRE / r.Oracle.MRE
}
