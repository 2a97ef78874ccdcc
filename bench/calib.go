package main

import (
	"bytes"
	"slices"
	"strconv"
	"time"
)

// This host's speed is not constant: for seconds to minutes at a time the
// same code runs 1.3–2x slower (a neighbour on the core's other thread or
// its power budget; steal time stays flat), which spreads ten runs of the
// same code by 20–50%. The benchmark therefore reports every time in
// units of a quiet host: beside each stretch of a run it times a fixed
// unit of work of its own — nothing of the repository's is in it, so no
// change to the program can move it — and scales the stretch by
// refUnitNs/measured. On a quiet host the factor is 1.00 ± 0.02 and the
// numbers are plain microseconds.

// refUnitNs is what one unit of the reference work takes on the seed host
// when it is quiet. It only fixes the scale the times are printed in.
const refUnitNs = 11700.0

// A slice of refSliceUnits units (~50 us) runs between ops every refEvery:
// about 1% of a stretch, spread evenly over it.
const (
	refSliceUnits = 8
	refEvery      = 5 * time.Millisecond
)

// speedometer holds the reference work: what a request costs in kind —
// formatting and parsing numbers, quoting and finding names, lookups in a
// large map, a dot product over 16k factors, a page copy — in fixed amounts
// and without allocating, so it leaves the allocation metrics alone.
type speedometer struct {
	keys    []string
	names   map[string]int
	buf     []byte
	rows    []float64
	weights []float64
	page    []byte
	dst     []byte
	n       int
	sink    float64
}

func newSpeedometer() *speedometer {
	m := &speedometer{names: make(map[string]int), buf: make([]byte, 0, 256), rows: make([]float64, 16384),
		weights: make([]float64, 16384), page: make([]byte, 4<<10), dst: make([]byte, 4<<10)}
	for i := 0; i < 1<<16; i++ {
		k := "k" + strconv.Itoa(i*7919%1000003)
		m.keys = append(m.keys, k)
		m.names[k] = i
	}
	for i := range m.rows {
		m.rows[i] = float64(i%97) * 0.01
	}
	for i := range m.weights {
		m.weights[i] = float64(i%10+1) * 0.1
	}
	return m
}

func (m *speedometer) unit() {
	m.n++
	i := m.n
	key := func(j int) string { return m.keys[(i*j)&(len(m.keys)-1)] }
	b := m.buf[:0]
	for j := 1; j <= 4; j++ {
		b = strconv.AppendQuote(b, key(j))
		b = append(b, ':')
		b = strconv.AppendFloat(b, float64(i%1000)*0.0137*float64(j), 'g', -1, 64)
		b = append(b, ',')
	}
	m.buf = b
	for len(b) > 0 {
		colon, comma := bytes.IndexByte(b, ':'), bytes.IndexByte(b, ',')
		v, _ := strconv.ParseFloat(string(b[colon+1:comma]), 64)
		m.sink += v
		b = b[comma+1:]
	}
	m.sink += float64(m.names[key(7)] + m.names[key(13)] + m.names[key(29)] + m.names[key(3)])
	// Four independent sums, as the program's kernels keep: bound by how
	// many multiply-adds the core retires, which is what a busy sibling
	// thread takes away first.
	var s0, s1, s2, s3 float64
	for r := 0; r+4 <= len(m.rows); r += 4 {
		s0 += m.rows[r] * m.weights[r]
		s1 += m.rows[r+1] * m.weights[r+1]
		s2 += m.rows[r+2] * m.weights[r+2]
		s3 += m.rows[r+3] * m.weights[r+3]
	}
	m.sink += s0 + s1 + s2 + s3
	m.sink += float64(copy(m.dst, m.page))
}

// slice runs a small fixed number of units and returns the time they took.
func (m *speedometer) slice() time.Duration {
	begin := time.Now()
	for i := 0; i < refSliceUnits; i++ {
		m.unit()
	}
	return time.Since(begin)
}

// refTime collects the reference slices run beside one stretch of work.
type refTime struct {
	spent time.Duration
	each  []time.Duration
}

func (r *refTime) add(d time.Duration) {
	r.spent += d
	r.each = append(r.each, d)
}

// slowdown is the factor by which the host ran slower than the quiet seed
// host while the slices ran; 1 when none did. It is taken from the median
// slice, so a slice that sat behind a view republish does not count.
func (r refTime) slowdown() float64 {
	if len(r.each) == 0 {
		return 1
	}
	s := slices.Clone(r.each)
	slices.Sort(s)
	return float64(quantileSorted(s, 0.5)) / refSliceUnits / refUnitNs
}

// onQuietHost expresses a time measured while the host ran slowBy times slower
// in quiet-host time.
func onQuietHost(d time.Duration, slowBy float64) time.Duration {
	return time.Duration(float64(d) / slowBy)
}
