//go:build race

package cluster

// raceEnabled gates assertions that the race detector invalidates by
// design — e.g. sync.Pool randomly drops Puts under -race, so
// zero-allocation pins cannot hold.
const raceEnabled = true
