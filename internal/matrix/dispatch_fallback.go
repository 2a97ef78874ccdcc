//go:build noasm || (!amd64 && !arm64)

package matrix

// Pure-Go build: the dispatch vars in kernels.go stay nil and every
// exported kernel runs the portable unrolled loops (PowSplit leaves every
// lane to its caller). The noasm tag exists so CI can prove the fallback
// alone passes the full suite (`make test-noasm`), and so an
// operator can opt out of the assembly on a misbehaving machine without
// patching code.
