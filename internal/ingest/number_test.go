package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// sameAsStrconv fails t unless parseFloat(text) returns what
// strconv.ParseFloat returns: the same bits, the same error.
func sameAsStrconv(t *testing.T, text []byte) {
	t.Helper()
	got, err := parseFloat(text)
	want, wantErr := strconv.ParseFloat(string(text), 64)
	if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) ||
		err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("parseFloat(%q) = %v (%#x), %v; strconv gives %v (%#x), %v",
			text, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
	}
}

// checkScan holds ScanNumber to its contract on b: it claims exactly the
// number encoding/json's decoder reads at the start of b, and a value it
// converts is strconv's, bit for bit.
func checkScan(t *testing.T, b []byte) {
	t.Helper()
	v, n, ok := ScanNumber(b)
	var ref []byte
	if len(b) > 0 && !bytes.ContainsAny(b[:1], " \t\r\n") {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		var x any
		if dec.Decode(&x) == nil {
			if num, isNum := x.(json.Number); isNum {
				ref = []byte(num)
			}
		}
	}
	if n < 0 || n > len(b) || !bytes.Equal(b[:n], ref) {
		t.Fatalf("ScanNumber(%q) claims %d bytes; encoding/json reads the number %q", b, n, ref)
	}
	if n == 0 && ok {
		t.Fatalf("ScanNumber(%q) converted a number it did not scan", b)
	}
	if !ok {
		return
	}
	want, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil || math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("ScanNumber(%q) = %v (%#x); strconv gives %v (%#x), %v",
			b[:n], v, math.Float64bits(v), want, math.Float64bits(want), err)
	}
}

// numberSeeds are texts at the edges of the converter: the exact path's
// bounds, Eisel–Lemire's table edges, ties and near-ties that strconv
// must settle from the digits, more digits than a uint64 holds, and what
// the JSON grammar refuses but strconv may take.
var numberSeeds = []string{
	"0", "-0", "-0.0", "-0.0e5", "0e999999999", "-0e-999999999", "1", "12", "1.5", "0.1", "1e22", "1e23",
	"9007199254740991", "9007199254740992", "9007199254740993", "18014398509481985",
	"123456789012345678", "1234567890123456789", "12345678901234567890", "99999999999999999999",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"1.0000000000000002220446049250313080847263336181640625",
	"0.10000000000000000555111512312578270211815834045410156250",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.225073858507201136057409796709131975934819546351645648e-308",
	"4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "5e-324",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e309",
	"1e-348", "1e-349", "1e347", "1e348", "9.999999999999999999e-349", "1.8446744073709551615e-330",
	"0.000000000000000000000000000000000000000000000000001",
	"100000000000000000000000000000000000000000000000000.0",
	"0.0012345678901234567", "19.999999999999996", "0.001", "20", "1.4375", "3.0000000000000004",
	"1E+2", "1e-2", "1.5e0", "1e007", "0.1e1", "1.5}", "1.5,", "1.5 ", "12345678.12345678]",
	"01", "1.", ".5", "-", "--1", "1e", "1e+", "1E-", "1.5e", "1.x", "-x", "", "x", "00", "1.5.5", "1e5e5", "1e5.5",
	"1.0000000 ", "1.00000000", "1.0000000x1", "+1.5", "inf", "+Inf", "-inf", "NaN", "nan", "0x1p-2", "0x1.8p1", "1_000", "1_000.5", " 1", "1 ", "1\n",
	"\xff", "1\xff", "٣",
}

func FuzzParseNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sameAsStrconv(t, b)
		checkScan(t, b)
	})
}

// TestScanNumberCorpus runs the converter over generated values in every
// form a client may send them — shortest round trip ('g' -1 and 'f' -1),
// 17 significant digits ('e' 16) and 21 ('e' 20, which must fall back) —
// drawn from every binary exponent and from the served range, and over
// each value's neighbours one unit in the last place away: each text
// decodes to strconv's bits, alone or followed by what a body puts after
// a value.
func TestScanNumberCorpus(t *testing.T) {
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	fallbacks := 0
	check := func(x float64) {
		for _, form := range []struct {
			fmt  byte
			prec int
		}{{'g', -1}, {'e', 16}, {'e', 20}, {'f', -1}} {
			if form.fmt == 'f' && math.Abs(x) > 1e30 {
				continue
			}
			buf = strconv.AppendFloat(buf[:0], x, form.fmt, form.prec, 64)
			text := len(buf)
			v, n, ok := ScanNumber(buf)
			// In a body the number runs on into what follows it.
			buf = append(buf, `},{"user":"u0001"`...)
			if v2, n2, ok2 := ScanNumber(buf); n != text || n2 != n || ok2 != ok || math.Float64bits(v2) != math.Float64bits(v) {
				t.Fatalf("ScanNumber(%q) = %v, %d, %v; followed by a member, %v, %d, %v", buf[:text], v, n, ok, v2, n2, ok2)
			}
			buf = buf[:text]
			if !ok {
				fallbacks++
				continue
			}
			if want, _ := strconv.ParseFloat(string(buf), 64); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("ScanNumber(%q) = %#x, strconv gives %#x", buf, math.Float64bits(v), math.Float64bits(want))
			}
		}
	}
	for i := 0; i < n; i++ {
		var x float64
		switch i % 3 {
		case 0: // any finite bit pattern
			for x = math.Inf(1); math.IsInf(x, 0) || math.IsNaN(x); {
				x = math.Float64frombits(rng.Uint64())
			}
		case 1: // the served range
			x = 0.001 + 20*rng.Float64()
		default: // small integers and short decimals, the exact path's
			x = float64(rng.Intn(1_000_000)) / float64([]int{1, 10, 100, 1000, 1e6}[rng.Intn(5)])
		}
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
		check(math.Nextafter(x, math.Inf(-1)))
	}
	t.Logf("%d of %d texts handed to strconv", fallbacks, 12*n)
	for _, s := range numberSeeds {
		sameAsStrconv(t, []byte(s))
		checkScan(t, []byte(s))
	}
}

// TestScanNumberServesServedShape: the values an observe carries — the
// shortest round-trip form of a response time or throughput between
// 0.001 and 20, 16 to 18 significant digits — are converted without
// strconv. If they fell back, every observe would pay for both.
func TestScanNumberServesServedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf []byte
	for i := 0; i < 100000; i++ {
		x := 0.001 + 19.999*rng.Float64()
		buf = strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
		if v, n, ok := ScanNumber(buf); !ok || n != len(buf) || v != x {
			t.Fatalf("ScanNumber(%q) = %v, %d, %v: want %v converted in place", buf, v, n, ok, x)
		}
	}
}
