package engine

import "github.com/qoslab/amf/internal/stream"

// Escaped is the escape watermark (see View), for the tests of package
// engine_test.
func (e *Engine) Escaped() uint64 { return e.escaped.Load() }

// ObserveAll is ObserveAllTraced without the breakdown, for the tests.
func (e *Engine) ObserveAll(ss []stream.Sample) { e.ObserveAllTraced(ss) }
