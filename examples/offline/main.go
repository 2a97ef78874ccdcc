// Offline: evaluate every prediction approach on a QoS dataset loaded
// from disk. This is the workflow for users who bring their own
// measurements: serialize them in the triplet format (cmd/qosgen emits
// it; any tool can), then compare all ten approaches of
// eval.ExtendedApproaches on a held-out split: the UMEAN/IMEAN floors,
// UPCC/IPCC/UIPCC/PMF, the BiasedMF and NIMF extension baselines,
// AMF(auto) and AMF.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/eval"
	"github.com/qoslab/amf/internal/stream"
)

func main() {
	// Produce a dataset file in memory (equivalently:
	//   qosgen -out qos.txt -users 40 -services 200 -slices 4 -density 0.25).
	cfg := dataset.Config{Users: 40, Services: 200, Slices: 4,
		Interval: dataset.DefaultConfig().Interval, Rank: 6, Seed: 17}
	gen, err := dataset.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var file bytes.Buffer
	var triplets []dataset.Triplet
	sampler := rand.New(rand.NewSource(17))
	for i := 0; i < cfg.Users; i++ {
		for j := 0; j < cfg.Services; j++ {
			if sampler.Float64() < 0.25 {
				triplets = append(triplets, dataset.Triplet{
					User: i, Service: j, Slice: 0,
					Value: gen.Value(dataset.ResponseTime, i, j, 0),
				})
			}
		}
	}
	if err := dataset.WriteTriplets(&file, dataset.ResponseTime, cfg.Users, cfg.Services, cfg.Slices, triplets); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset file: %d bytes, %d observations\n", file.Len(), len(triplets))

	// Load it back — this is where a real user's pipeline starts.
	attr, users, services, _, loaded, err := dataset.ReadTriplets(&file)
	if err != nil {
		log.Fatal(err)
	}
	samples := stream.TripletsToSamples(loaded, cfg.Interval)

	// Hold out 30% of the loaded observations for evaluation.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(samples), func(a, b int) { samples[a], samples[b] = samples[b], samples[a] })
	cut := len(samples) * 7 / 10
	split := stream.Split{Train: samples[:cut], Test: samples[cut:]}
	ctx := eval.NewTrainContext(attr, users, services, split, 1)

	fmt.Printf("training on %d observations, evaluating on %d held-out\n\n", len(split.Train), len(split.Test))
	fmt.Printf("%-10s %8s %8s %8s\n", "approach", "MAE", "MRE", "NPRE")
	for _, a := range eval.ExtendedApproaches() {
		pred, err := a.Train(ctx)
		if err != nil {
			log.Fatal(err)
		}
		m := eval.Compute(pred, split.Test)
		fmt.Printf("%-10s %8.3f %8.3f %8.3f\n", a.Name, m.MAE, m.MRE, m.NPRE)
	}
	fmt.Println("\n(smaller is better; AMF rows should lead on MRE and NPRE)")
}
