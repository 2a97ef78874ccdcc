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
func Survivors(keys []float32, worst float32, lowerIsBetter bool) uint64 {
	if len(keys) > 64 {
		panic("matrix: Survivors takes at most 64 keys")
	}
	var mask uint64
	done := 0
	if survivors32Arch != nil {
		// The assembly XORs flip into key and bound alike so that its
		// one compare, key > worst, decides key < worst instead:
		// flipping both signs reverses the order exactly.
		var flip uint32
		if !lowerIsBetter {
			flip = 1 << 31
		}
		done = len(keys) &^ 7
		mask = survivors32Arch(keys[:done], worst, flip)
	}
	return mask | survivorsGo(keys[done:], worst, lowerIsBetter)<<done
}

// survivorsGo is the portable Survivors, and the reference the assembly
// is tested against.
func survivorsGo(keys []float32, worst float32, lowerIsBetter bool) (mask uint64) {
	for i, key := range keys {
		worse := key > worst
		if !lowerIsBetter {
			worse = key < worst
		}
		if !worse {
			mask |= 1 << i
		}
	}
	return mask
}
