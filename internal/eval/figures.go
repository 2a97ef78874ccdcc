package eval

import (
	"math"
	"sort"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stats"
	"github.com/qoslab/amf/internal/transform"
)

// Fig2a returns the response-time series of one (user, service) pair over
// all time slices — the paper's Fig. 2(a), showing fluctuation around a
// stable average.
func Fig2a(g *dataset.Generator, user, service int) []float64 {
	cfg := g.Config()
	out := make([]float64, cfg.Slices)
	for t := 0; t < cfg.Slices; t++ {
		out[t] = g.Value(dataset.ResponseTime, user, service, t)
	}
	return out
}

// Fig2b returns the ascending-sorted response times perceived by `count`
// users of one service at one slice — the paper's Fig. 2(b), showing that
// QoS is user-specific.
func Fig2b(g *dataset.Generator, service, slice, count int) []float64 {
	cfg := g.Config()
	if count <= 0 || count > cfg.Users {
		count = cfg.Users
	}
	out := make([]float64, count)
	for i := 0; i < count; i++ {
		out[i] = g.Value(dataset.ResponseTime, i, service, slice)
	}
	sort.Float64s(out)
	return out
}

// Fig7 builds the raw data-distribution histograms of the paper's Fig. 7:
// response time cut at 10 s and throughput cut at 150 kbps.
func Fig7(g *dataset.Generator, bins, sampleSlices, sampleCells int) (rt, tp *stats.Histogram) {
	rt = g.AttributeHistogram(dataset.ResponseTime, 10, bins, sampleSlices, sampleCells)
	tp = g.AttributeHistogram(dataset.Throughput, 150, bins, sampleSlices, sampleCells)
	return rt, tp
}

// Fig8 builds the transformed data distributions of the paper's Fig. 8:
// the Box-Cox + normalization pipeline applied with the paper's tuned
// alphas, yielding far more symmetric distributions on [0, 1].
func Fig8(g *dataset.Generator, bins, sampleSlices, sampleCells int) (rt, tp *stats.Histogram, err error) {
	build := func(attr dataset.Attribute) (*stats.Histogram, error) {
		rmin, rmax := attr.Range()
		tr, err := transform.New(attr.DefaultAlpha(), rmin, rmax)
		if err != nil {
			return nil, err
		}
		h := stats.NewHistogram(0, 1.0000001, bins)
		cfg := g.Config()
		n := sampleSlices
		if n <= 0 || n > cfg.Slices {
			n = cfg.Slices
		}
		for k := 0; k < n; k++ {
			t := k * cfg.Slices / n
			cells := sampleCells
			if cells <= 0 {
				cells = cfg.Users * cfg.Services
			}
			for c := 0; c < cells; c++ {
				var i, j int
				if sampleCells <= 0 {
					i, j = c/cfg.Services, c%cfg.Services
				} else {
					i = (c*7907 + k*17) % cfg.Users
					j = (c*104729 + k*29) % cfg.Services
				}
				h.Observe(tr.Forward(g.Value(attr, i, j, t)))
			}
		}
		return h, nil
	}
	rt, err = build(dataset.ResponseTime)
	if err != nil {
		return nil, nil, err
	}
	tp, err = build(dataset.Throughput)
	if err != nil {
		return nil, nil, err
	}
	return rt, tp, nil
}

// Fig9 computes the sorted, normalized singular values of the slice-0
// user-service matrices for both attributes (the paper's Fig. 9 low-rank
// evidence). topN truncates the returned series (<=0 returns all).
func Fig9(g *dataset.Generator, topN int) (rt, tp []float64, err error) {
	compute := func(attr dataset.Attribute) ([]float64, error) {
		m := g.SliceMatrix(attr, 0)
		sv, err := matrix.SingularValues(m)
		if err != nil {
			return nil, err
		}
		norm := matrix.NormalizeDescending(sv)
		if topN > 0 && len(norm) > topN {
			norm = norm[:topN]
		}
		return norm, nil
	}
	if rt, err = compute(dataset.ResponseTime); err != nil {
		return nil, nil, err
	}
	if tp, err = compute(dataset.Throughput); err != nil {
		return nil, nil, err
	}
	return rt, tp, nil
}

// SkewReduction quantifies Fig. 7 → Fig. 8: the absolute skewness of an
// attribute's marginal before and after the data transformation, sampled
// over one slice. The transformation should shrink it substantially.
func SkewReduction(g *dataset.Generator, attr dataset.Attribute, sampleCells int) (before, after float64, err error) {
	rmin, rmax := attr.Range()
	tr, err := transform.New(attr.DefaultAlpha(), rmin, rmax)
	if err != nil {
		return 0, 0, err
	}
	cfg := g.Config()
	n := sampleCells
	if n <= 0 {
		n = cfg.Users * cfg.Services
	}
	raw := make([]float64, 0, n)
	for c := 0; c < n; c++ {
		var i, j int
		if sampleCells <= 0 {
			i, j = c/cfg.Services, c%cfg.Services
		} else {
			i = (c * 7907) % cfg.Users
			j = (c * 104729) % cfg.Services
		}
		raw = append(raw, g.Value(attr, i, j, 0))
	}
	cooked := make([]float64, n)
	tr.ForwardAll(cooked, raw)
	return math.Abs(stats.Skewness(raw)), math.Abs(stats.Skewness(cooked)), nil
}
