//go:build noasm || !amd64

package matrix

// powSplitAVX512 has no kernel in this build: powSplitServes stays false,
// so PowSplit never calls it.
func powSplitAVX512(dst, xs []float64, yi int64, yf float64, neg bool) uint64 {
	panic("matrix: no AVX-512F power kernel in this build")
}
