//go:build amd64 && !noasm

package matrix

// AVX2+FMA dispatch for the ranking kernels. Feature detection is
// written against the raw CPUID/XGETBV leaves (cpuid_amd64.s) so the
// module keeps its zero-dependency rule — no golang.org/x/sys/cpu.
//
// The kernels require AVX2 (256-bit integer/FP lanes), FMA3, and an OS
// that saves YMM state on context switch (OSXSAVE + XCR0 bits 1-2).
// Anything less falls through to the portable Go loops in kernels.go.

// cpuid executes CPUID with the given EAX/ECX inputs (cpuid_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended-state enable mask (cpuid_amd64.s).
func xgetbv0() (eax, edx uint32)

// dotBatchAVX2 is the float64 batch kernel in kernels_amd64.s: 4-row
// blocked FMA over 4-wide chunks with a one-row remainder path that
// shares the per-row association exactly.
//
//go:noescape
func dotBatchAVX2(dst, block, q []float64)

// dotBatch32AVX2 is the float32 twin: 4-row blocked over 8-wide chunks.
//
//go:noescape
func dotBatch32AVX2(dst, block, q []float32)

// dotPage32AVX2 is DotPage32: eight row groups per pass, one 8-wide
// accumulator each, multiply then add. len(dst) is a multiple of 8 and
// len(q) >= 1.
//
//go:noescape
func dotPage32AVX2(dst, block, q []float32)

// survivors32AVX2 is the compare kernel behind Survivors: bit i of the
// result is clear when keys[i]^flip > worst^flip. len(keys) must be a
// multiple of 8.
//
//go:noescape
func survivors32AVX2(keys []float32, worst float32, flip uint32) uint64

func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}

func init() {
	if !hasAVX2FMA() {
		return
	}
	simdName = "avx2"
	dotBatchArch = dotBatchAVX2
	dotBatch32Arch = dotBatch32AVX2
	dotPage32Arch = dotPage32AVX2
	survivors32Arch = survivors32AVX2
	// Dot as a one-row batch call: the bit-identity invariant in
	// kernels.go holds by construction.
	dotArch = func(a, b []float64) float64 {
		var d [1]float64
		dotBatchAVX2(d[:1], a, b)
		return d[0]
	}
}
