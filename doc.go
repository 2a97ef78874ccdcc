// Package amf is a Go reproduction of "Towards Online, Accurate, and
// Scalable QoS Prediction for Runtime Service Adaptation" (Zhu, He, Zheng,
// Lyu — ICDCS 2014).
//
// The library implements the paper's contribution, Adaptive Matrix
// Factorization (internal/core), the four baselines it compares against
// (internal/baseline), a synthetic stand-in for the WS-DREAM QoS dataset
// (internal/dataset), an experiment harness regenerating every table and
// figure of the evaluation (internal/eval, cmd/amfbench), and the
// QoS-driven service adaptation framework of Section III (internal/adapt,
// internal/server, internal/client).
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-versus-measured results.
// `go run ./cmd/amfbench -exp all` regenerates every experiment, the
// ablations included, at configurable scale.
package amf
