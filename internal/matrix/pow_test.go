package matrix

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// powSplitOf splits y as transform's exponent does: |y|'s integer part
// and fraction, the fraction folded into (−0.5, 0.5] as math.Pow folds
// it. ok is false for the exponents math.Pow answers by a special case
// or past its squaring loop, which never reach PowSplit.
func powSplitOf(y float64) (yi int64, yf float64, ok bool) {
	fi, ff := math.Modf(math.Abs(y))
	if y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) || fi >= 1<<63 {
		return 0, 0, false
	}
	if ff > 0.5 {
		ff--
		fi++
	}
	return int64(fi), ff, true
}

// checkPowSplit runs PowSplit on xs for y twice, into a dst of sentinels
// and in place, and fails unless every lane it writes is math.Pow bit
// for bit, every lane it leaves is untouched and the tail past the last
// whole vector is left. It returns the lanes left.
func checkPowSplit(tb testing.TB, xs []float64, y float64) uint64 {
	tb.Helper()
	yi, yf, ok := powSplitOf(y)
	if !ok {
		tb.Fatalf("y=%g has no split", y)
	}
	const sentinel = -12345.5
	dst := make([]float64, len(xs))
	for i := range dst {
		dst[i] = sentinel
	}
	rest := PowSplit(dst, xs, yi, yf, y < 0)
	in := append([]float64(nil), xs...)
	if restIn := PowSplit(in, in, yi, yf, y < 0); restIn != rest {
		tb.Fatalf("y=%g: in place left %#x, into dst %#x", y, restIn, rest)
	}
	if tail := len(xs) &^ 7; len(xs) > 0 && rest>>tail != ^uint64(0)>>(64-(len(xs)-tail)) {
		tb.Fatalf("y=%g n=%d: left %#x, not every tail lane", y, len(xs), rest)
	}
	for i, x := range xs {
		want := math.Pow(x, y)
		switch {
		case rest&(1<<i) != 0:
			if dst[i] != sentinel || math.Float64bits(in[i]) != math.Float64bits(x) {
				tb.Fatalf("y=%g lane %d: left, but written (%g, %g)", y, i, dst[i], in[i])
			}
		case math.Float64bits(dst[i]) != math.Float64bits(want) || math.Float64bits(in[i]) != math.Float64bits(want):
			tb.Fatalf("y=%g lane %d x=%g (%#x): kernel %g (%#x), in place %g, math.Pow %g (%#x)",
				y, i, x, math.Float64bits(x), dst[i], math.Float64bits(dst[i]), in[i], want, math.Float64bits(want))
		}
	}
	return rest
}

// TestPowSplitServes: on a CPU the kernel runs on, the values a
// Box-Cox transform raises — x in (0, 20] at the paper's α = −0.007 and
// its inverse — are all computed in the kernel, none left to the caller,
// and each is math.Pow bit for bit.
func TestPowSplitServes(t *testing.T) {
	if !powSplitServes {
		t.Skip("the AVX-512F power kernel does not serve in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 64)
	for _, y := range []float64{-0.007, 1 / -0.007} {
		for round := 0; round < 200; round++ {
			for i := range xs {
				xs[i] = 0.01 + rng.Float64()*19.99
			}
			if rest := checkPowSplit(t, xs, y); rest != 0 {
				t.Fatalf("y=%g: lanes %#x left to the caller", y, rest)
			}
		}
	}
}

// TestPowSplitLeavesAll: where the kernel does not serve, PowSplit
// leaves every lane, so its caller computes all of them.
func TestPowSplitLeavesAll(t *testing.T) {
	if powSplitServes {
		t.Skip("the AVX-512F power kernel serves here")
	}
	xs := make([]float64, 17)
	for i := range xs {
		xs[i] = float64(i + 2)
	}
	if rest := PowSplit(xs, xs, 142, 0.857, true); bits.OnesCount64(rest) != len(xs) {
		t.Fatalf("left %#x, want all %d lanes", rest, len(xs))
	}
}

// maxFuzzPowLanes caps the lanes FuzzPowKernel builds: two whole vectors
// and a tail of four run every path of PowSplit, and a longer input only
// slows the fuzzer's minimizing (see maxFuzzRank).
const maxFuzzPowLanes = 20

// FuzzPowKernel holds PowSplit to math.Pow bit for bit over
// fuzzer-chosen bit patterns — every exponent, sign and special value —
// and a fuzzer-chosen power: each lane it writes equals math.Pow, each it
// leaves is untouched, in place and into a separate dst alike.
func FuzzPowKernel(f *testing.F) {
	seed := make([]byte, 8*maxFuzzPowLanes)
	for i := 0; i < maxFuzzPowLanes; i++ {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(0.05*float64(i+1)))
	}
	f.Add(seed, -0.007)
	f.Add(seed, 1/-0.007)
	f.Add(seed[:64], 1e3)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}, 2.5)
	f.Fuzz(func(t *testing.T, data []byte, y float64) {
		if _, _, ok := powSplitOf(y); !ok {
			return
		}
		xs := make([]float64, min(len(data)/8, maxFuzzPowLanes))
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkPowSplit(t, xs, y)
	})
}
