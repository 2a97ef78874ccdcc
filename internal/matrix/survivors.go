package matrix

// Survivors is the compare half of fused top-k selection (core's
// selectRows): given the keys a batch kernel just stored for one factor
// page and the selection's current k-th best key, it returns a mask
// whose bit i is clear only when keys[i] is strictly worse than worst —
// greater when lowerIsBetter, less otherwise — so the selection loop
// visits set bits and never looks at the other rows. A comparison
// involving a NaN is false, so NaN keys survive and a NaN worst lets
// every row through; so do ties, and ±0 against ∓0. It panics on more
// than 64 keys.
//
// On amd64 with AVX2 whole vectors of keys are compared in assembly
// (kernels_amd64.s) and the odd rows at the end here; everywhere else,
// and under the noasm tag, survivorsGo does all of it. The two agree bit
// for bit — a compare has no rounding — which TestSurvivors holds them
// to for every row count.
func Survivors[F float32 | float64](keys []F, worst float64, lowerIsBetter bool) uint64 {
	if len(keys) > 64 {
		panic("matrix: Survivors takes at most 64 keys")
	}
	var mask uint64
	done := 0
	switch ks := any(keys).(type) {
	case []float64:
		if survivorsArch != nil {
			done = len(ks) &^ 3
			mask = survivorsArch(ks[:done], worst, signBit(lowerIsBetter, 63))
		}
	case []float32:
		// The float32 lanes need worst as a float32; one that would
		// round — no float32 key ever produced it — or is NaN is left
		// to the portable compare, which is in float64.
		if w := float32(worst); survivors32Arch != nil && float64(w) == worst {
			done = len(ks) &^ 7
			mask = survivors32Arch(ks[:done], w, uint32(signBit(lowerIsBetter, 31)))
		}
	}
	return mask | survivorsGo(keys[done:], worst, lowerIsBetter)<<done
}

// signBit is what the assembly XORs into key and bound alike so that its
// one compare, key > worst, decides key < worst instead: flipping both
// signs reverses the order exactly.
func signBit(lowerIsBetter bool, bit uint) uint64 {
	if lowerIsBetter {
		return 0
	}
	return 1 << bit
}

// survivorsGo is the portable Survivors, and the reference the assembly
// is tested against.
func survivorsGo[F float32 | float64](keys []F, worst float64, lowerIsBetter bool) (mask uint64) {
	for i, key := range keys {
		worse := float64(key) > worst
		if !lowerIsBetter {
			worse = float64(key) < worst
		}
		if !worse {
			mask |= 1 << i
		}
	}
	return mask
}
