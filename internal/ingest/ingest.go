// Package ingest holds what the write path shares between the prediction
// server's POST /api/v1/observe codec and the gateway that fronts it: the
// decoded form of one observed QoS sample (Observation) and the converter
// that reads a JSON number into a float64 in the pass that scans it
// (ScanNumber). It is the paper's "Input Handling" (Fig. 3) reduced to
// its data: the one door that carries the samples is HTTP.
package ingest

// Observation is one decoded sample. Its names are views into the body
// it was decoded from: valid until that body is released.
type Observation struct {
	User        []byte
	Service     []byte
	Value       float64
	TimestampMs int64 // 0: stamped on arrival
}
