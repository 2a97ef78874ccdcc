package engine

// Escaped is the escape watermark (see View), for the tests of package
// engine_test.
func (e *Engine) Escaped() uint64 { return e.escaped.Load() }
