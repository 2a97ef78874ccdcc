//go:build amd64 && !noasm

package matrix

// AVX2+FMA dispatch for the ranking kernels, with the AVX-512F page walk
// and batch power where the CPU has them. Feature detection is written against the raw
// CPUID/XGETBV leaves (cpuid_amd64.s) so the module keeps its
// zero-dependency rule — no golang.org/x/sys/cpu.
//
// The kernels require AVX2 (256-bit integer/FP lanes), FMA3, and an OS
// that saves YMM state on context switch (OSXSAVE + XCR0 bits 1-2).
// Anything less falls through to the portable Go loops in kernels.go.
// The AVX-512 page walk and batch power further require AVX-512F and an
// OS that saves the opmask and ZMM state too (XCR0 bits 5-7); without
// them the AVX2 walk serves, over the same page layout, and PowSplit
// leaves every lane to its caller.

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

// walkPages32AVX512 is WalkPages32: each page's four row groups in one
// pass, one 16-wide accumulator each, multiply then add, compared as
// survivors32AVX2 compares keys, and the scores stored only for the page
// it returns at. n >= 1 and len(q) >= 1.
//
//go:noescape
func walkPages32AVX512(dst *[PageRows]float32, first *[]float32, stride uintptr, n int, q []float32, worst float32, flip uint32, last uint64) (i int, mask uint64)

// walkPages32AVX2 is walkPages32AVX512 in eight 8-wide accumulators, two
// per group.
//
//go:noescape
func walkPages32AVX2(dst *[PageRows]float32, first *[]float32, stride uintptr, n int, q []float32, worst float32, flip uint32, last uint64) (i int, mask uint64)

// survivors32AVX2 is the compare kernel behind Survivors: bit i of the
// result is clear when keys[i]^flip > worst^flip. len(keys) must be a
// multiple of 8.
//
//go:noescape
func survivors32AVX2(keys []float32, worst float32, flip uint32) uint64

// powSplitAVX512 is PowSplit over len(xs) lanes, a multiple of eight and
// at least eight (pow_amd64.s).
//
//go:noescape
func powSplitAVX512(dst, xs []float64, yi int64, yf float64, neg bool) (rest uint64)

// missingAVX2 names what the CPU or OS lacks for the AVX2+FMA kernels,
// or returns "" when it has everything.
func missingAVX2() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return "CPUID has no leaf 7"
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return "no AVX, FMA or OSXSAVE"
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return "the OS does not save XMM and YMM state"
	}
	const avx2Bit = 1 << 5
	if _, b7, _, _ := cpuid(7, 0); b7&avx2Bit == 0 {
		return "no AVX2"
	}
	return ""
}

// missingAVX512 is missingAVX2 for the AVX-512 kernels, which also
// needs AVX-512F and the opmask, ZMM_Hi256 and Hi16_ZMM state saved.
func missingAVX512() string {
	if m := missingAVX2(); m != "" {
		return m
	}
	const avx512fBit = 1 << 16
	if _, b7, _, _ := cpuid(7, 0); b7&avx512fBit == 0 {
		return "no AVX-512F"
	}
	if xcr0, _ := xgetbv0(); xcr0&0xE6 != 0xE6 {
		return "the OS does not save opmask and ZMM state"
	}
	return ""
}

func init() {
	noAVX2, noAVX512 := missingAVX2(), missingAVX512()
	pageKernels = []pageKernel{
		{"avx2", walkPages32AVX2, noAVX2},
		{"avx512", walkPages32AVX512, noAVX512},
	}
	if noAVX2 != "" {
		return
	}
	simdName = "avx2"
	dotBatchArch = dotBatchAVX2
	dotBatch32Arch = dotBatch32AVX2
	walkPages32Arch = walkPages32AVX2
	survivors32Arch = survivors32AVX2
	if noAVX512 == "" {
		simdName = "avx512"
		walkPages32Arch = walkPages32AVX512
		powSplitServes = true
	}
	// Dot as a one-row batch call: the bit-identity invariant in
	// kernels.go holds by construction.
	dotArch = func(a, b []float64) float64 {
		var d [1]float64
		dotBatchAVX2(d[:1], a, b)
		return d[0]
	}
}
