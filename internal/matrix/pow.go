package matrix

// PowSplit raises up to 64 values to one fixed power y, given as y's
// split: yi and yf are |y|'s integer part and fraction after math.Pow's
// fold of the fraction into (−0.5, 0.5], and neg is y < 0 (transform's
// exponent holds the split; see transform/power.go). For every lane it
// writes, dst[i] is math.Pow(xs[i], y) bit for bit on amd64: the kernel
// is math.Pow's general case, x^yf as Exp(yf·Log(x)) times x^yi by
// successive squarings of Frexp(x), then Ldexp, with Log and Exp the
// operations of the math package's amd64 assembly, archLog and the FMA
// path of archExp, op for op.
//
// Bit i of the result is set for each lane it left unwritten, and the
// caller computes those itself:
//   - a lane whose x is not in [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰) — zero, subnormal,
//     negative, infinite or NaN included — or is 1;
//   - a lane whose squaring loop breaks out on an exponent past ±4096,
//     or whose result is not a normal float64;
//   - the len(xs) mod 8 lanes past the last whole vector;
//   - every lane, where the AVX-512F kernel does not serve (no AVX-512F,
//     another architecture, the noasm tag).
//
// The kernel stores only the lanes it vouches for, so dst may alias xs:
// a lane it leaves has its x still in place. len(dst) must be at least
// len(xs), and it panics on more than 64 values.
func PowSplit(dst, xs []float64, yi int64, yf float64, neg bool) uint64 {
	n := len(xs)
	if n > 64 {
		panic("matrix: PowSplit takes at most 64 values")
	}
	dst = dst[:n]
	rest := ^uint64(0) >> (64 - n)
	if !powSplitServes || n < 8 {
		return rest
	}
	done := n &^ 7
	return powSplitAVX512(dst[:done], xs[:done], yi, yf, neg) | rest&(^uint64(0)<<done)
}
