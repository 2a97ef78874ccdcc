// Package stream models the sequentially observed QoS data that drives
// AMF's online learning: individual (time, user, service, value) samples,
// the paper's matrix-density train/test split protocol (Sec. V-C), and
// replay utilities that feed samples to models in randomized or
// time-ordered fashion.
package stream

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/qoslab/amf/internal/dataset"
)

// Sample is one observed QoS data sample (t_ij, u_i, s_j, R_ij) as in
// Algorithm 1 of the paper.
type Sample struct {
	Time    time.Duration // observation time: from the dataset's start, or in the server from the Unix epoch
	User    int
	Service int
	Value   float64
}

// Split is the outcome of the paper's evaluation protocol for one time
// slice: entries are randomly removed from the full matrix so that the
// retained density matches the target; retained entries become the
// training stream and removed entries the test set.
type Split struct {
	Train []Sample
	Test  []Sample
}

// SliceSplit builds a Split for one time slice of the generator at the
// given matrix density in (0, 1). Each cell is retained independently with
// probability density (so each user invokes ≈ density of the services and
// each service is invoked by ≈ density of the users, as in the paper).
// Training samples are shuffled into a random stream order; each sample's
// Time is the slice start plus a uniform offset inside the slice.
// Deterministic in seed.
func SliceSplit(g *dataset.Generator, attr dataset.Attribute, slice int, density float64, seed int64) (Split, error) {
	if density <= 0 || density >= 1 {
		return Split{}, fmt.Errorf("stream: density %g out of (0,1)", density)
	}
	cfg := g.Config()
	if slice < 0 || slice >= cfg.Slices {
		return Split{}, fmt.Errorf("stream: slice %d out of range [0,%d)", slice, cfg.Slices)
	}
	rng := rand.New(rand.NewSource(seed))
	base := g.SliceTime(slice)
	var sp Split
	for i := 0; i < cfg.Users; i++ {
		for j := 0; j < cfg.Services; j++ {
			s := Sample{
				Time:    base + time.Duration(rng.Int63n(int64(cfg.Interval))),
				User:    i,
				Service: j,
				Value:   g.Value(attr, i, j, slice),
			}
			if rng.Float64() < density {
				sp.Train = append(sp.Train, s)
			} else {
				sp.Test = append(sp.Test, s)
			}
		}
	}
	rng.Shuffle(len(sp.Train), func(a, b int) {
		sp.Train[a], sp.Train[b] = sp.Train[b], sp.Train[a]
	})
	return sp, nil
}

// SubsetSplit is SliceSplit restricted to the given users and services
// (identified by their generator indices). It is used by the scalability
// experiment (Fig. 14), which first trains on 80% of users/services and
// later injects the rest.
func SubsetSplit(g *dataset.Generator, attr dataset.Attribute, slice int, users, services []int, density float64, seed int64) (Split, error) {
	if density <= 0 || density >= 1 {
		return Split{}, fmt.Errorf("stream: density %g out of (0,1)", density)
	}
	cfg := g.Config()
	if slice < 0 || slice >= cfg.Slices {
		return Split{}, fmt.Errorf("stream: slice %d out of range [0,%d)", slice, cfg.Slices)
	}
	rng := rand.New(rand.NewSource(seed))
	base := g.SliceTime(slice)
	var sp Split
	for _, i := range users {
		for _, j := range services {
			s := Sample{
				Time:    base + time.Duration(rng.Int63n(int64(cfg.Interval))),
				User:    i,
				Service: j,
				Value:   g.Value(attr, i, j, slice),
			}
			if rng.Float64() < density {
				sp.Train = append(sp.Train, s)
			} else {
				sp.Test = append(sp.Test, s)
			}
		}
	}
	rng.Shuffle(len(sp.Train), func(a, b int) {
		sp.Train[a], sp.Train[b] = sp.Train[b], sp.Train[a]
	})
	return sp, nil
}

// TripletsToSamples converts serialized dataset triplets into stream
// samples, stamping each with the start time of its slice.
func TripletsToSamples(ts []dataset.Triplet, interval time.Duration) []Sample {
	out := make([]Sample, len(ts))
	for i, t := range ts {
		out[i] = Sample{
			Time:    time.Duration(t.Slice) * interval,
			User:    t.User,
			Service: t.Service,
			Value:   t.Value,
		}
	}
	return out
}
