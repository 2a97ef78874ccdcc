package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// TestSurvivors holds the dispatched Survivors (assembly on amd64/AVX2;
// the portable loop under -tags noasm and elsewhere) to survivorsGo for
// every row count 0–64 and both directions, on keys the batch kernel
// stored. Rows and bounds include what a compare can get wrong: a key
// equal to the bound, ±0, ±Inf, NaN as key and as bound.
func TestSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inf := float32(math.Inf(1))
	const rank = 10
	block, q := make([]float32, 64*rank), make([]float32, rank)
	for i := range block {
		block[i] = float32(rng.NormFloat64())
	}
	for i := range q {
		q[i] = 1 + rng.Float32()
	}
	for r := 0; r < 64; r += 5 { // every fifth row scores 0, ±Inf or NaN
		row := block[r*rank : (r+1)*rank]
		clear(row)
		row[0] = []float32{0, inf, -inf}[r/5%3]
		if r%2 == 1 {
			row[0], row[rank-1] = inf, -inf // Inf − Inf
		}
	}
	keys := make([]float32, 64)
	DotBatch32(keys, block, q)
	if keys[5] == keys[5] || keys[10] != -inf || keys[0] != 0 || keys[20] != inf {
		t.Fatalf("special rows scored %v %v %v %v, want NaN -Inf 0 +Inf", keys[5], keys[10], keys[0], keys[20])
	}
	negZero := float32(math.Copysign(0, -1))
	bounds := []float32{0, negZero, inf, -inf, float32(math.NaN()), 0.1, keys[2], keys[7]}
	for n := 0; n <= 64; n++ {
		for _, lower := range []bool{true, false} {
			for _, worst := range bounds {
				if got, want := Survivors(keys[:n], worst, lower), survivorsGo(keys[:n], worst, lower); got != want {
					t.Fatalf("n=%d lower=%v worst=%v:\n mask     %064b\n portable %064b", n, lower, worst, got, want)
				}
			}
		}
	}
	// The reference against the definition, so that it is not only ever
	// compared with itself: a bit is clear iff strictly worse.
	for i, key := range keys {
		for _, worst := range bounds {
			if dropped := survivorsGo(keys[i:i+1], worst, true) == 0; dropped != (key > worst) {
				t.Fatalf("key %v bound %v, lower is better: dropped=%v", key, worst, dropped)
			}
			if dropped := survivorsGo(keys[i:i+1], worst, false) == 0; dropped != (key < worst) {
				t.Fatalf("key %v bound %v, higher is better: dropped=%v", key, worst, dropped)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on 65 keys")
		}
	}()
	Survivors(make([]float32, 65), 0, true)
}
