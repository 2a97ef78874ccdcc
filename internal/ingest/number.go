package ingest

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// This file converts decimal text to float64 in the pass that scans it,
// for the observe codec's values. A value's bits are always
// strconv.ParseFloat's: the text is read into at most 19 significant
// digits and a decimal exponent, which is converted exactly by one float
// multiply or divide where both operands are exact, and otherwise by
// Eisel–Lemire (Lemire, "Number parsing at a gigabyte per second", 2021),
// the algorithm strconv itself runs first. What those cannot decide —
// more digits, an exponent past the table, a case Eisel–Lemire leaves
// open — is handed back for strconv to convert from the text.

// ScanNumber reads the JSON number (RFC 8259) at the start of b,
// converting it as it scans, and returns its length n. n is 0 when b does
// not start with a well-formed number: a JSON decoder's scan of it stops
// with an error (a lone '-', "1.", "1e+"). Otherwise the number is b[:n],
// the longest run the grammar allows (so "01" gives n = 1), and when ok
// is true v is strconv.ParseFloat(string(b[:n]), 64), bit for bit; when
// ok is false, strconv must convert b[:n] itself, and may report it out
// of range.
func ScanNumber(b []byte) (v float64, n int, ok bool) {
	i, neg := 0, false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i >= len(b) {
		return 0, 0, false
	}
	// mant holds the first nd significant digits; the value is
	// mant × 10^exp, or lies past it when trunc says a nonzero digit
	// did not fit.
	var mant uint64
	nd, exp, trunc := 0, 0, false
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				mant = mant*10 + uint64(c)
				nd++
			} else {
				exp++
				trunc = trunc || c != 0
			}
		}
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		for i < len(b) {
			// Eight digits at a time while they fit: the values a client
			// sends in shortest round-trip form have 16–18 digits.
			if nd > 0 && nd <= maxMantDigits-8 && i+8 <= len(b) {
				if w := binary.LittleEndian.Uint64(b[i:]); eightDigits(w) {
					mant = mant*1e8 + parseEight(w)
					nd += 8
					exp -= 8
					i += 8
					continue
				}
			}
			c := b[i] - '0'
			if c > 9 {
				break
			}
			switch {
			case nd == 0 && c == 0: // a leading zero only moves the point
				exp--
			case nd < maxMantDigits:
				mant = mant*10 + uint64(c)
				nd++
				exp--
			default:
				trunc = trunc || c != 0
			}
			i++
		}
		if i == from {
			return 0, 0, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		from, e := i, 0
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if e < 10000 { // far past the table either way
				e = e*10 + int(c)
			}
		}
		if i == from {
			return 0, 0, false
		}
		exp += esign * e
	}
	if trunc {
		return 0, i, false
	}
	v, ok = decimalToFloat(mant, exp, neg)
	return v, i, ok
}

// maxMantDigits is how many significant digits fit a uint64 whatever
// they are.
const maxMantDigits = 19

// eightDigits reports whether the eight bytes of w, loaded little-endian,
// are all ASCII digits.
func eightDigits(w uint64) bool {
	return ((w+0x4646464646464646)|(w-0x3030303030303030))&0x8080808080808080 == 0
}

// parseEight returns the value of the eight ASCII digits in w, the first
// in its low byte: pairs, then quads, then the whole.
func parseEight(w uint64) uint64 {
	const mask = 0x000000FF000000FF
	w -= 0x3030303030303030
	w = w*10 + w>>8
	w = ((w&mask)*(100+1000000<<32) + (w>>16&mask)*(1+10000<<32)) >> 32
	return w & 0xFFFFFFFF
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// decimalToFloat returns ±mant × 10^exp rounded to nearest even, or
// ok = false where only strconv can say.
func decimalToFloat(mant uint64, exp int, neg bool) (f float64, ok bool) {
	if mant>>53 == 0 && -len(exactPow10) < exp && exp < len(exactPow10) {
		// Both operands are exact, so one correctly rounded operation
		// rounds the exact value.
		f = float64(mant)
		if neg {
			f = -f
		}
		if exp >= 0 {
			return f * exactPow10[exp], true
		}
		return f / exactPow10[-exp], true
	}
	return eiselLemire(mant, exp, neg)
}

// pow10Min and pow10Max bound the exponents pow10 covers, as strconv's
// own table does: past them a float64 is 0 or +Inf for any 19 digits.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10[e-pow10Min] is 10^e's 128-bit mantissa rounded down — hi, then
// lo — normalized so that hi's top bit is set; its binary exponent is
// implied by e (see eiselLemire). It is computed, not listed, so that
// nothing can mistype it; the build takes well under a millisecond.
var pow10 = buildPow10()

func buildPow10() (t [pow10Max - pow10Min + 1][2]uint64) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	word := new(big.Int)
	set := func(e int, x *big.Int) { // x holds exactly 128 bits
		t[e-pow10Min][0] = word.And(word.Rsh(x, 64), mask).Uint64()
		t[e-pow10Min][1] = word.And(x, mask).Uint64()
	}
	top := func(x *big.Int) *big.Int { // the leading 128 bits of x, rounded down
		if s := x.BitLen() - 128; s > 0 {
			return new(big.Int).Rsh(x, uint(s))
		}
		return new(big.Int).Lsh(x, uint(128-x.BitLen()))
	}
	p := big.NewInt(1) // 10^e for e = 0, 1, …
	ten := big.NewInt(10)
	for e := 0; e <= pow10Max; e++ {
		set(e, top(p))
		p.Mul(p, ten)
	}
	p.SetInt64(1) // 10^-e for e = -1, -2, …: 2^k / 10^-e with room to spare
	q := new(big.Int)
	for e := -1; e >= pow10Min; e-- {
		p.Mul(p, ten)
		q.Lsh(big.NewInt(1), uint(p.BitLen()+192))
		set(e, top(q.Quo(q, p)))
	}
	return t
}

// eiselLemire converts ±man × 10^exp10 with one 64×64-bit product (two
// where the first leaves the rounding in doubt) against pow10, following
// strconv's eiselLemire64 step for step; ok is false where it cannot
// decide, or the result is subnormal or infinite.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)
	// Multiplication.
	p := &pow10[exp10-pow10Min]
	xHi, xLo := bits.Mul64(man, p[0])
	// Wider approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, p[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Shifting to 54 bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	// Half-way ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}
	// From 54 to 53 bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is unsigned: 0 or an underflow is subnormal, 0x7FF or
	// above is Inf/NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
